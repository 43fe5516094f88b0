import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    netsde.ingest forks a child for each large CSV table and must reap it
    on every path, raising ones included."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"{pid} exited unreaped"
    pytest.fail(f"the test left a child process behind ({state})")
