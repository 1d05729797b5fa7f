"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces each listed public function at every binding it
has inside the loaded ``conceptlab`` modules (module globals and the dict
values held in module globals, such as the checker table of
``conceptlab.dimensions``), and wraps the constructors and methods named in
``CLASS_HOOKS`` on their classes.  Every wrapped call records a span; a
span's self time is its duration minus the time covered by its child spans.
Spans are kept in memory only as per-name totals.

No layer of the package has a queue or a lock, so there is no wait time to
record: every span is busy time on the one thread.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute): functions wrapped at every binding.
FUNCTIONS = (
    ("core.enumerate_realizable_samples", "conceptlab.core", "enumerate_realizable_samples"),
    ("dimensions.ds_shatters", "conceptlab.dimensions", "ds_shatters"),
    ("dimensions.ds_shatters_bruteforce", "conceptlab.dimensions", "ds_shatters_bruteforce"),
    ("dimensions.dimension", "conceptlab.dimensions", "dimension"),
    ("dimensions.n_shatters", "conceptlab.dimensions", "n_shatters"),
    ("dimensions.g_shatters", "conceptlab.dimensions", "g_shatters"),
    ("dimensions.vc_shatters", "conceptlab.dimensions", "vc_shatters"),
    ("kernels.ds_fixpoint", "conceptlab._kernels", "ds_fixpoint"),
    ("kernels.ds_bruteforce_mask", "conceptlab._kernels", "ds_bruteforce_mask"),
    ("compression.verify_scheme", "conceptlab.compression", "verify_scheme"),
    ("compression.boosted_scheme", "conceptlab.compression", "boosted_scheme"),
    ("compression.extract_disambiguation", "conceptlab.compression", "extract_disambiguation"),
    ("compression.min_compression_certificate", "conceptlab.compression", "min_compression_certificate"),
    ("compression.key_search", "conceptlab.compression", "_find_assignment"),
    ("lowerbound.pipeline_certificate", "conceptlab.lowerbound", "pipeline_certificate"),
    ("lowerbound.chromatic_number", "conceptlab.lowerbound", "chromatic_number"),
    ("cli.main", "conceptlab.cli", "main"),
)

# (metric prefix, module, class, attribute): wrapped on the class itself.
# CompressionScheme.__init__ is hooked so that the compress and reconstruct
# callables of every scheme built (by the CLI or inside the package) are
# wrapped as compression.compress and compression.reconstruct.
CLASS_HOOKS = (
    ("core.ConceptClass", "conceptlab.core", "ConceptClass", "__init__"),
    ("core.Sample", "conceptlab.core", "Sample", "__init__"),
    ("dimensions.ShatterWitness.verify", "conceptlab.dimensions", "ShatterWitness", "verify"),
    (None, "conceptlab.compression", "CompressionScheme", "__init__"),
)

SPANS = tuple(name for name, *_ in FUNCTIONS + CLASS_HOOKS if name) + (
    "compression.compress",
    "compression.reconstruct",
)

CHECKERS = (
    "dimensions.ds_shatters",
    "dimensions.n_shatters",
    "dimensions.g_shatters",
    "dimensions.vc_shatters",
)
KERNELS = ("kernels.ds_fixpoint", "kernels.ds_bruteforce_mask")

COUNTS = (
    "core.enumerate_realizable_samples.samples",
    "dimensions.dimension.subsets_tried",
    "kernels.ds_fixpoint.patterns_in",
    "kernels.ds_bruteforce_mask.patterns_in",
    "compression.verify_scheme.samples_checked",
    "cli.exit.0",
    "cli.exit.1",
    "cli.exit.2",
    "cli.exit.3",
    "cli.exit.raised",
)

ROOT = "bench.instance"
"""Span opened by the benchmark around each instance; its self time is the
instance time spent outside every wrapped function."""


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [name, start, child time]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.kernel_inputs: defaultdict = defaultdict(set)

    # -- spans ---------------------------------------------------------------

    def push(self, name: str) -> int:
        self.stack.append([name, time.perf_counter(), 0.0])
        return len(self.stack)

    def pop(self, depth: int) -> None:
        """Close every span at ``depth`` or deeper (an exception, such as the
        instance deadline, may have skipped the closing of inner spans)."""
        now = time.perf_counter()
        while len(self.stack) >= depth:
            name, start, child = self.stack.pop()
            duration = now - start
            self.self_s[name] += duration - child
            if self.stack:
                self.stack[-1][2] += duration

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None, error=None):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if before is not None:
                before(args)
            depth = self.push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if error is not None:
                    error()
                raise
            finally:
                self.pop(depth)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is a span of ``name``; the call
        count is the number of generators created."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self.on:
                yield from inner
                return
            self.calls[name] += 1
            while True:
                depth = self.push(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.pop(depth)
                self.counts[name + ".samples"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str):
        """(before, after, error) callbacks that record a function's own
        counts."""
        if name in KERNELS:

            def before(args, name=name):
                patterns = args[0]
                self.counts[name + ".patterns_in"] += len(patterns)
                self.kernel_inputs[name].add(tuple(patterns))

            return before, None, None
        if name in CHECKERS:

            def before(args):
                if self.parent() == "dimensions.dimension":
                    self.counts["dimensions.dimension.subsets_tried"] += 1

            after = None
            if name == "dimensions.ds_shatters":

                def after(result):
                    if result is not None:
                        self.counts["dimensions.ds_shatters.positive"] += 1

            return before, after, None
        if name == "compression.verify_scheme":

            def after(report):
                self.counts["compression.verify_scheme.samples_checked"] += (
                    report.samples_checked
                )

            return None, after, None
        if name == "cli.main":

            def after(code):
                self.counts[f"cli.exit.{code}"] += 1

            def error():
                self.counts["cli.exit.raised"] += 1

            return None, after, error
        return None, None, None

    def install(self) -> None:
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "conceptlab" or key.startswith("conceptlab.")
        ]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            if name == "core.enumerate_realizable_samples":
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, *self._hooks(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
        for name, module_name, class_name, attr in CLASS_HOOKS:
            cls = getattr(sys.modules[module_name], class_name)
            original = getattr(cls, attr)
            if name is None:
                setattr(cls, attr, self._scheme_init(original))
            else:
                setattr(cls, attr, self.wrap(name, original))

    def _scheme_init(self, original):
        def init(scheme, name, compress, reconstruct):
            original(
                scheme,
                name,
                self.wrap("compression.compress", compress),
                self.wrap("compression.reconstruct", reconstruct),
            )

        return init

    # -- results ---------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same code and seed."""
        out = {f"{name}.calls": self.calls[name] for name in SPANS + (ROOT,)}
        out.update(self.counts)
        for name in KERNELS:
            out[f"{name}.distinct_inputs"] = len(self.kernel_inputs[name])
        return dict(sorted(out.items()))
