"""Noise control and provenance: BLAS pinning, import path, fingerprint.

``pin()`` runs before numpy is imported anywhere in the process; the
other helpers import numpy lazily for that reason.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Worker count of every parallel clock (= nproc of the sizing host).
#: Fixed, so numbers from hosts with more cores stay comparable.
WORKERS = 2

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    """One BLAS thread, and ``repro`` from this checkout's ``src/``.

    A ``repro`` found anywhere else (an installed copy) would be a
    different program than the one under test, so that is an error.
    """
    if "numpy" in sys.modules and any(
            os.environ.get(v) != "1" for v in _BLAS_VARS):
        raise RuntimeError("perfbench.env.pin() must run before numpy "
                           "is imported")
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from "
                          f"{SRC}; perfbench measures the checkout it "
                          f"lives in")


def child_env() -> Dict[str, str]:
    """Environment for ``python -m perfbench`` subprocesses."""
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, SRC, env.get("PYTHONPATH", "")) if p)
    return env


def run_child(args: list, timeout: float, capture: bool = False
              ) -> subprocess.CompletedProcess:
    """``python -m perfbench <args>`` in a fresh interpreter, in a process
    group of its own.  If this process is terminated or the child runs
    out of time, the child is asked to stop (it then stops its workers,
    ``stop_children``), and whatever of its group is left is killed: a
    killed child alone would orphan workers that wait for it."""
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench", *args], cwd=ROOT, env=child_env(),
        stdout=pipe, stderr=pipe, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.terminate()
        try:
            proc.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(proc.pid, 9)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _children() -> list:
    """Pids whose parent is this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def _wait(pid: int, seconds: float) -> bool:
    """Reap ``pid``; ``False`` if it is still alive after ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:
            return True  # someone else reaped it: it has ended
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Runs on every path out of ``python -m perfbench``.  The one process
    a clean run still has is multiprocessing's resource tracker (started
    by the first ``SharedMemory`` of the processes backend): the
    interpreter never waits for it, so it would outlive us by a moment.
    It ends by itself once its pipe closes; a stuck worker is killed.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import resource_tracker
        for proc in multiprocessing.active_children():
            proc.kill()
            proc.join()
        tracker = resource_tracker._resource_tracker
        fd = getattr(tracker, "_fd", None)
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass
            tracker._fd = None
            tracker._pid = None
    for pid in _children():
        if not _wait(pid, 5.0):
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
            _wait(pid, 5.0)


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed serial gemm/QR/Cholesky mix.

    Moves with the host's effective speed right now, never with this
    repository's code: the denominator of ``dense_over_calib``, and
    ``--compare`` prints the ratio of two runs' calibrations next to the
    verdicts so host drift is visible.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    eye = np.eye(256)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(4):
            c = a @ a
            np.linalg.qr(c)
            np.linalg.cholesky(c @ c.T / 256.0 + 256.0 * eye)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def fingerprint() -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy
    import scipy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    nproc = os.cpu_count() or 1
    return {
        "git_sha": sha,
        "nproc": nproc,
        "workers": WORKERS,
        "oversubscribed": nproc < WORKERS,
        "blas_threads": {v: os.environ.get(v, "") for v in _BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
