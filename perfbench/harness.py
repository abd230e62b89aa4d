"""Run one CLI request in process, the way a fresh invocation would see it.

`execute` calls `permdom.cli.main(argv)` with stdout and stderr captured and
a time limit.  `Isolation` gives every request the state a new process
would have: before each request it clears every `functools` cache found in
a permdom module (the `lru_cache` memos on `counting.f1` and `counting.g1`
today), then compares the module-level state with the state taken before
the first request.  A difference is memo state leaking from one request into
the next, and the request counts as failed.
"""
from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path


class RequestTimeout(BaseException):
    """Raised inside a request that ran past its time limit.  A
    BaseException, so that no `except Exception` in the program swallows it."""


@dataclass
class Outcome:
    argv: tuple[str, ...]
    latency: float            # seconds, by the clock passed to `execute`
    rc: int | None = None
    stdout: str = ""
    error: str | None = None  # exception or timeout; None when main returned
    start: float = 0.0        # perf_counter when the request started
    end: float = 0.0          # perf_counter when it returned


def _on_alarm(signum, frame):
    raise RequestTimeout


def execute(cli, argv: tuple[str, ...], limit: float,
            clock=time.perf_counter) -> Outcome:
    """Run `cli.main(argv)` once; `cli` is looked up per call, so a traced
    `main` is picked up."""
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    started = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except RequestTimeout:
        error = f"timed out after {limit:g} s"
    except Exception as exc:  # the program crashed: a failed request
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency = clock() - started
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    return Outcome(argv, latency, rc, out.getvalue(), error, start, end)


def load_permdom(root: Path):
    """Import `permdom.cli` from `<root>/src` and return it, with every
    permdom module loaded.  Raises RuntimeError when the checkout holds no
    program or another copy of permdom was imported."""
    src = (root / "src").resolve()
    if not (src / "permdom" / "__init__.py").is_file():
        raise RuntimeError(f"no program to measure: {src / 'permdom'} is missing")
    sys.path.insert(0, str(src))
    import permdom.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported permdom from {cli.__file__}, not from {src}")
    return cli


def permdom_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "permdom" or name.startswith("permdom.")]


class Isolation:
    """Clear per-process memo state before each request and detect leaks."""

    def __init__(self, modules):
        self.caches = []
        self.containers = []
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("__"):
                    continue
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    self.caches.append((f"{mod.__name__}.{name}", obj))
                elif isinstance(obj, (dict, list, set)):
                    self.containers.append((mod, name))
        for _, cache in self.caches:
            cache.cache_clear()
        self.baseline = self.state()

    def state(self) -> dict[str, int]:
        sizes = {name: cache.cache_info().currsize for name, cache in self.caches}
        for mod, name in self.containers:
            sizes[f"{mod.__name__}.{name}"] = len(vars(mod).get(name, ()))
        return sizes

    def reset(self) -> str | None:
        """Clear the caches; return a description of any leaked state."""
        for _, cache in self.caches:
            cache.cache_clear()
        now = self.state()
        leaked = [f"{k}: {self.baseline[k]} -> {v}"
                  for k, v in now.items() if v != self.baseline[k]]
        return "memo state leaked: " + ", ".join(leaked) if leaked else None
