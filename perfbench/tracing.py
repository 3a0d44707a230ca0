"""Spans around the calls etclab's driver and calibrator make across module boundaries.

The wrappers are installed from here, for the traced pass only, and
removed afterwards; the library itself is not changed.  Each span records
its name, start, end, parent span and op id.  Spans stay in memory
(flat arrays) and are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover; the calls are
sequential, so that is the sum of the children's durations.

A boundary that is missing (a later refactor removed or renamed it) is
skipped, and every metric that needs it reads as absent (``None``).
"""

import importlib
import time
from array import array

import numpy as np


def _result_size(args, kwargs, result):
    return result.size


def _paths(args, kwargs, result):
    return kwargs["n_samples"] if "n_samples" in kwargs else args[1]


# span name -> (module, attribute path, work recorded per call)
BOUNDARIES = {
    "sde.normals": ("etclab.sde", "NoiseStream.normals", _result_size),
    "sde.uniforms": ("etclab.sde", "NoiseStream.uniforms", _result_size),
    "graph.cost_rows": ("etclab.driver", "consensus_cost_rows", None),
    "control.consensus": ("etclab.driver", "consensus_value", None),
    "triggering.fire_step": ("etclab.driver", "periodic_fire_step", None),
    "costs.finalize": ("etclab.driver", "finalize", None),
    "costs.close_cycle": ("etclab.costs", "CostAccumulator.close_cycle", None),
    "triggering.fpt": ("etclab.calibration", "sample_first_passage_batch", _paths),
}
ROOTS = ("driver.batch", "calibration")  # the benchmark's own calls, one per op


class Tracer:
    def __init__(self):
        self.names = list(ROOTS) + list(BOUNDARIES)
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("d")
        self.end = array("d")
        self.start = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.installed = set(ROOTS)
        self._restore = []

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())  # last, so bookkeeping stays outside
        return idx

    def close(self, idx: int, work: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.work[idx] = work

    def _wrap(self, name, fn, work):
        open_, close, name_id = self.open, self.close, self.names.index(name)

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx)
                raise
            close(idx, work(args, kwargs, result) if work else 0.0)
            return result

        return wrapper

    def install(self) -> None:
        for name, (module, path, work) in BOUNDARIES.items():
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, work))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return dict(
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            work=np.frombuffer(self.work),
        )

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, seconds, self seconds and work, or None if absent.

        ``fpt_draws`` is the work of normals spans whose parent is a
        first-exit sampler span: the sampler's agent steps.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for i, label in enumerate(self.names):
            if label not in self.installed:
                out[label] = None
                continue
            mask = name == i
            out[label] = dict(calls=int(mask.sum()), s=float(dur[mask].sum()),
                              self_s=float(own[mask].sum()),
                              work=float(a["work"][mask].sum()))
        if out["sde.normals"] is not None and out["triggering.fpt"] is not None:
            fpt = self.names.index("triggering.fpt")
            normals = self.names.index("sde.normals")
            under = (name == normals) & (parent >= 0)
            under[under] = name[parent[under]] == fpt
            out["fpt_draws"] = float(a["work"][under].sum())
        else:
            out["fpt_draws"] = None
        return out
