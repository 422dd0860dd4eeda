"""In-memory span recorder that wraps anyonlab's public functions from outside.

Nothing under ``src/anyonlab`` is edited.  ``Tracer.install`` replaces each
traced function in every ``anyonlab`` module namespace that binds it, so
names bound at import time (``cli``'s ``run`` and ``syndrome_sweep``,
``tableau``'s ``mul_phase_exp``, ``anyon``'s ``apply_gate``, ...) are
wrapped too; ``uninstall`` puts the originals back.  A function the
program no longer has is skipped and its metrics read 0.

Two kinds of wrapper:

* a span records (name, start, end, parent) into a flat in-memory array;
  a span's self time is its duration minus the durations of its direct
  child spans (children nest inside the parent and never overlap);
* a counter only counts calls.  It is used for the hot inner functions
  (``mul_phase_exp``, row multiplication, ``Tableau.measure``) so that the
  spans around them (``init_toric_ground``) keep their whole cost as
  self time and the tracing overhead stays small.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array
from collections import Counter

_SPAN_FIELDS = 4        # name id, start ns, end ns, parent index (-1 at top)


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._swept = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            nid = self._name_id(name if isinstance(name, str) else name(*args, **kwargs))
            index = len(spans) // _SPAN_FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                base = index * _SPAN_FIELDS
                spans[base + 1] = start
                spans[base + 2] = end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def mark(self) -> tuple[int, Counter]:
        """A boundary between segments: span count and a copy of the counters."""
        if self._stack:
            raise RuntimeError("mark() inside an open span")
        return len(self.spans) // _SPAN_FIELDS, Counter(self.counts)

    def segment(self, begin, end) -> tuple[dict[str, list[int]], Counter]:
        """Per-name self times (ns, one entry per call) and counter deltas between two marks."""
        first, last = begin[0], end[0]
        spans = self.spans
        self_ns = [spans[i * _SPAN_FIELDS + 2] - spans[i * _SPAN_FIELDS + 1]
                   for i in range(first, last)]
        for i in range(first, last):
            parent = spans[i * _SPAN_FIELDS + 3]
            if parent >= 0:
                self_ns[parent - first] -= (spans[i * _SPAN_FIELDS + 2]
                                            - spans[i * _SPAN_FIELDS + 1])
        by_name: dict[str, list[int]] = {}
        for i in range(first, last):
            name = self.names[spans[i * _SPAN_FIELDS]]
            by_name.setdefault(name, []).append(self_ns[i - first])
        counts = Counter(end[1])
        counts.subtract(begin[1])
        return by_name, counts

    def write_spans(self, path):
        """Dump every recorded span as TSV: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            spans = self.spans
            for i in range(len(spans) // _SPAN_FIELDS):
                b = i * _SPAN_FIELDS
                fh.write(f"{i}\t{self.names[spans[b]]}\t{spans[b + 1]}\t"
                         f"{spans[b + 2]}\t{spans[b + 3]}\n")

    # -- patching --------------------------------------------------------

    def _replace(self, original, wrapped):
        """Rebind ``original`` to ``wrapped`` wherever an anyonlab module holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "anyonlab" and not modname.startswith("anyonlab."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self) -> list[str]:
        """Wrap every traced function; returns the names the program no longer has."""
        from anyonlab import (anyon, cli, dense, lattice, pauli, report,
                              spectrum, tableau)

        def by_k(prefix):
            return lambda k, *a, **kw: f"{prefix}.k{k}"

        def sweep_name(t, model, *a, **kw):
            kind = "cached" if t in self._swept else "first"
            self._swept.add(t)
            return f"tableau.syndrome_sweep.{kind}.k{model.torus_k}"

        def count_random(args, result):
            if not result[1]:
                self.counts["tableau.measure.random"] += 1

        def count_bytes(args, path):
            self.counts["report.bytes_written"] += path.stat().st_size

        span, counter = self.span, self.counter
        functions = [
            (pauli, "mul_phase_exp", counter, "pauli.mul_phase_exp", None),
            (dense, "apply_gate", span, "dense.apply_gate", None),
            (dense, "apply_pauli", span, "dense.apply_pauli", None),
            (dense, "expect_pauli", span, "dense.expect_pauli", None),
            (dense, "dump_amplitudes", span, "dense.dump_amplitudes", None),
            (lattice, "build_toric", span, by_k("lattice.build_toric"), None),
            (lattice, "syndrome", span, "lattice.syndrome", None),
            (tableau, "init_toric_ground", span,
             lambda model, *a, **kw: f"tableau.init_toric_ground.k{model.torus_k}", None),
            (tableau, "syndrome_sweep", span, sweep_name, None),
            (anyon, "run_experiment", span, "anyon.run_experiment", None),
            (anyon, "prepare_initial_state", span, "anyon.prepare_initial_state", None),
            (anyon, "braid", span, "anyon.braid", None),
            (anyon, "measurement_reduction", span, "anyon.measurement_reduction", None),
            (anyon, "extract_phase", span, "anyon.extract_phase", None),
            (spectrum, "synthesize", span, "spectrum.synthesize", None),
            (spectrum, "assign_peak_labels", span, "spectrum.assign_peak_labels", None),
            (spectrum, "sample_lineshape", span, "spectrum.sample_lineshape", None),
            (spectrum, "spectrum_to_csv", span, "spectrum.to_csv", None),
            (spectrum, "lineshape_to_csv", span, "spectrum.to_csv", None),
            (report, "dumps_report", span, "report.dumps_report", None),
            (report, "write_report", span, "report.write", count_bytes),
            (report, "write_text", span, "report.write", count_bytes),
            (report, "write_manifest", span, "report.write_manifest", None),
            (cli, "build_parser", span, "cli.build_parser", None),
            (cli, "cmd_ground", span, "cli.ground", None),
            (cli, "cmd_braid_demo", span, "cli.braid_demo", None),
            (cli, "cmd_toric", span, "cli.toric", None),
            (cli, "cmd_spectrum", span, "cli.spectrum", None),
            (cli, "cmd_sweep", span, "cli.sweep", None),
        ]
        methods = [
            (pauli.PauliString, "__mul__", span, "pauli.mul", None),
            (pauli.PauliString, "__str__", span, "pauli.str", None),
            (tableau.Tableau, "apply_pauli", span, "tableau.apply_pauli", None),
            (tableau.Tableau, "apply_gate", counter, "tableau.apply_gate", None),
            (tableau.Tableau, "measure", counter, "tableau.measure", count_random),
            (tableau.Tableau, "_rowmult", counter, "tableau.rowmult", None),
        ]
        missing = []
        try:
            for module, attr, kind, name, after in functions:
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module.__name__}.{attr}")
                else:
                    self._replace(original, kind(name, original, after))
            for cls, attr, kind, name, after in methods:
                original = cls.__dict__.get(attr)
                if original is None:
                    missing.append(f"{cls.__name__}.{attr}")
                else:
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, kind(name, original, after))
        except BaseException:
            self.uninstall()
            raise
        return missing

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
