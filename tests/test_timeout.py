import re
import signal
import time

import pytest

from conftest import TEST_TIMEOUT_S


def test_a_test_past_the_limit_fails_naming_itself(request):
    # The alarm is armed for the whole test; set it to go off at once.
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIMEOUT_S
    signal.setitimer(signal.ITIMER_REAL, 0.01)
    with pytest.raises(pytest.fail.Exception, match=re.escape(request.node.nodeid)):
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            pass
