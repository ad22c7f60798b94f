"""Resource profiling: per-span RSS/CPU/heap deltas and a sampling profiler.

Two independent, off-by-default mechanisms:

* **Span resources** — ``Tracer(profile_resources=True)`` makes every
  span record a ``resources`` dict at close: CPU seconds consumed while
  the span was open (``time.process_time`` delta, process-wide), the
  resident-set-size delta in KiB (``/proc/self/statm`` where available,
  ``resource.getrusage`` peak-RSS as the fallback), and — when
  :mod:`tracemalloc` is tracing — the Python-heap peak above the
  span-entry level in KiB.  The numbers ride along in ``span`` records
  (batch and streamed alike) and aggregate in
  :func:`~repro.obs.export.format_trace_summary`.

* **Sampling profiler** — :class:`SamplingProfiler` is a stdlib-only
  wall-clock profiler: a daemon thread wakes every ``interval`` seconds,
  reads every thread's current frame via ``sys._current_frames()``, and
  charges the elapsed wall time to the innermost function, keyed by the
  stage the sampled thread is in (the tracer's per-thread span path).
  ``report()`` returns the top functions per stage;
  ``format_trace_summary(tracer, profile=prof)`` surfaces it.  Overhead
  is one frame walk per interval — negligible at the default 5 ms — and
  exactly zero when not started.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import time
import tracemalloc

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024 if hasattr(os, "sysconf") else 4.0
_STATM = "/proc/self/statm"
_HAS_STATM = os.path.exists(_STATM)


def rss_kb() -> float:
    """Current (or, without /proc, peak) resident set size in KiB."""
    if _HAS_STATM:
        try:
            with open(_STATM, "rb") as fh:
                return int(fh.read().split()[1]) * _PAGE_KB
        except (OSError, ValueError, IndexError):
            pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return usage / 1024.0 if sys.platform == "darwin" else float(usage)
    except Exception:
        return 0.0


def capture_resources() -> tuple:
    """Span-entry snapshot consumed by :func:`finish_resources`."""
    heap = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else None
    return (time.process_time(), rss_kb(), heap)


def finish_resources(entry: tuple) -> dict:
    """Resource deltas since ``entry`` (a :func:`capture_resources` value)."""
    cpu0, rss0, heap0 = entry
    out = {
        "cpu_s": round(time.process_time() - cpu0, 6),
        "rss_delta_kb": round(rss_kb() - rss0, 1),
    }
    if heap0 is not None and tracemalloc.is_tracing():
        peak = tracemalloc.get_traced_memory()[1]
        # Peak above the span-entry level; peaks reached before entry
        # clamp to zero.  (reset_peak would be exact but clobbers any
        # enclosing span's measurement.)
        out["tracemalloc_peak_kb"] = round(max(peak - heap0, 0) / 1024.0, 1)
    return out


def _function_key(frame) -> str:
    """``file:function`` with paths shortened to the package-local part."""
    code = frame.f_code
    filename = code.co_filename.replace("\\", "/")
    for marker in ("/site-packages/", "/src/"):
        idx = filename.rfind(marker)
        if idx >= 0:
            filename = filename[idx + len(marker):]
            break
    else:
        parts = filename.rsplit("/", 2)
        filename = "/".join(parts[-2:])
    return f"{filename}:{code.co_name}"


_INDEX_RE = re.compile(r"\[\d+\]")


def _stage_key(path: str, depth: int = 2) -> str:
    """Truncate a span path to its top-level stage (``flow/gp``).

    Iteration indices collapse (``iter[7]/cg`` -> ``iter[*]/cg``) so
    samples aggregate across iterations instead of fragmenting into one
    bucket per loop trip.
    """
    if not path:
        return "(no span)"
    return _INDEX_RE.sub("[*]", "/".join(path.split("/")[:depth]))


class SamplingProfiler:
    """Wall-clock sampling profiler attributing time to functions per stage.

    ``tracer`` (optional) supplies per-thread span paths so samples are
    bucketed by stage; without one, everything lands in ``(no span)``.
    Use as a context manager or via :meth:`start`/:meth:`stop`.
    """

    def __init__(self, tracer=None, *, interval: float = 0.005):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._tracer = tracer
        self.interval = float(interval)
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], float] = {}
        self._samples = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.started_at: float | None = None
        self.wall_s = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        if self.started_at is not None:
            self.wall_s += time.perf_counter() - self.started_at
            self.started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling ------------------------------------------------------
    def _loop(self) -> None:
        own = threading.get_ident()
        last = time.perf_counter()
        while not self._stop.wait(self.interval):
            now = time.perf_counter()
            dt = now - last
            last = now
            try:
                frames = sys._current_frames()
            except Exception:
                continue
            tracer = self._tracer
            with self._lock:
                for tid, frame in frames.items():
                    if tid == own:
                        continue
                    path = tracer.thread_path(tid) if tracer is not None else ""
                    key = (_stage_key(path), _function_key(frame))
                    self._counts[key] = self._counts.get(key, 0.0) + dt
                    self._samples += 1

    # -- results -------------------------------------------------------
    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def report(self, top: int = 10) -> list[dict]:
        """The ``top`` most expensive ``(stage, function)`` buckets.

        Rows are sorted by attributed seconds, descending; ``share`` is
        relative to all attributed time.
        """
        with self._lock:
            counts = dict(self._counts)
        total = sum(counts.values())
        rows = []
        for (stage, function), seconds in sorted(
            counts.items(), key=lambda kv: -kv[1]
        )[: max(top, 0)]:
            rows.append(
                {
                    "stage": stage,
                    "function": function,
                    "seconds": round(seconds, 4),
                    "share": f"{100.0 * seconds / total:.1f}%" if total else "-",
                }
            )
        return rows
