"""Outside-in tracing of serrespec: wrap public functions of each module
and record one span per call, without changing the package.

Modules import each other's functions by value (``from .ideals import
enumerate_serre_ideals``), so a function is replaced in every
``serrespec`` module that binds it, not just where it is defined.  Spans
are kept in flat arrays (command id, name, parent span, start, end) and
self time is derived from them after a pass: a span's duration minus the
durations of its direct children.
"""

import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped; VARIANTS splits some into several spans
WRAPPED = (
    ("io", "parse_ring_file"), ("io", "serialize_ring"),
    ("zring", "build_ring"),
    ("ideals", "enumerate_serre_ideals"), ("ideals", "serre_closure"),
    ("ideals", "product_support"), ("ideals", "is_serre_ideal"),
    ("ideals", "quotient_ring"),
    ("spectrum", "serre_spec"), ("spectrum", "is_serre_prime"),
    ("spectrum", "is_semiprime"), ("spectrum", "minimal_primes_over"),
    ("topology", "build_topology"), ("topology", "closed_set"),
    ("topology", "specialization_edges"),
    ("twocat", "classify_completely_primes"), ("twocat", "corner_ring"),
    ("monomial", "truncate_to_ring"), ("gallery", "load_gallery"),
    ("cli", "run_command"), ("cli", "render_report"),
)

# modules with spans; Coefficient arithmetic has none, so its time counts
# as self time of the zring or io function that called it
LAYERS = ("io", "zring", "ideals", "spectrum", "topology", "twocat",
          "monomial", "gallery", "cli")


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# argument that names a variant of the call: (position, keyword, default)
VARIANTS = {
    "spectrum.is_serre_prime": (2, "mode", "fast"),
    "topology.build_topology": (1, "style", None),
}


class Tracer:
    """Install with ``install()``, run commands with ``cmd_id`` set, then
    ``summary()`` and ``reset()`` per pass; ``restore()`` puts every
    original function back."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.cmd = array("l")
        self.name = array("l")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.cmd_id = -1
        self.counts = defaultdict(int)
        self.missing = []
        self._patches = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset(self):
        for a in (self.cmd, self.name, self.parent, self.t0, self.t1):
            del a[:]
        self.counts.clear()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, func, base):
        tr = self
        fixed = self._id(base)
        variant = VARIANTS.get(base)
        hooks = _HOOKS.get(base)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = fixed
            if variant is not None:
                sid = tr._id(f"{base}.{_arg(args, kwargs, *variant)}")
            if hooks:
                hooks[0](tr, args, kwargs)
            idx = len(tr.t0)
            tr.cmd.append(tr.cmd_id)
            tr.name.append(sid)
            tr.parent.append(tr.stack[-1])
            tr.t0.append(0.0)
            tr.t1.append(0.0)
            tr.stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                tr.t1[idx] = clock()
                tr.t0[idx] = start
                tr.stack.pop()
            if hooks:
                hooks[1](tr, result, args, kwargs)
            return result

        return wrapper

    def install(self):
        """Wrap every listed function in every serrespec module binding it,
        and count Coefficient allocations."""
        pkg_modules = [m for name, m in sorted(sys.modules.items())
                       if name == "serrespec" or name.startswith("serrespec.")]
        for module, func_name in WRAPPED:
            owner = sys.modules.get(f"serrespec.{module}")
            original = getattr(owner, func_name, None)
            if original is None:
                self.missing.append(f"{module}.{func_name}")
                continue
            wrapper = self._wrap(original, f"{module}.{func_name}")
            for m in pkg_modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        coeff = sys.modules["serrespec.coefficients"].Coefficient
        init = coeff.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["allocs"] += 1
            init(obj, *args, **kwargs)

        self._patches.append((coeff, "__init__", init))
        coeff.__init__ = counting_init

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def summary(self):
        """Per span name: calls, total and self seconds, plus per-module
        self seconds, the traced total, and the event counts."""
        n = len(self.t0)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        under = defaultdict(int)  # (name, parent name) -> calls
        for i in range(n):
            name = self.names[self.name[i]]
            s = stats[name]
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - child[i]
            p = self.parent[i]
            if p >= 0:
                under[(name, self.names[self.name[p]])] += 1
        roots = sum(dur[i] for i in range(n) if self.parent[i] < 0)
        return {"spans": n, "stats": dict(stats), "under": dict(under),
                "traced_s": roots, "counts": dict(self.counts)}

    def per_command(self):
        """{command id: {span name: [calls, total seconds]}}."""
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for i in range(len(self.t0)):
            s = out[self.cmd[i]][self.names[self.name[i]]]
            s[0] += 1
            s[1] += self.t1[i] - self.t0[i]
        return {c: dict(v) for c, v in out.items()}


def _pre_parse(tr, args, kwargs):
    tr.counts["ring_bytes"] += len(_arg(args, kwargs, 0, "text", ""))


def _pre_build(tr, args, kwargs):
    labels = _arg(args, kwargs, 0, "labels", ())
    if hasattr(labels, "__len__"):
        tr.counts["triples"] += len(labels) ** 3


def _post_build(tr, ring, args, kwargs):
    tr.counts["nonzero_constants"] += sum(len(r) for r in ring.tensor.values())


def _post_enumerate(tr, ideals, args, kwargs):
    tr.counts["ideals_out"] += len(ideals)


def _post_spec(tr, spec, args, kwargs):
    tr.counts["primes_out"] += len(spec.primes)


def _post_topology(tr, family, args, kwargs):
    tr.counts["closed_sets_out"] += len(family.sets)
    tr.counts[f"closed_sets_out.{family.style}"] += len(family.sets)


def _post_render(tr, text, args, kwargs):
    tr.counts["report_bytes"] += len(text)


def _nothing(*_):
    pass


_HOOKS = {
    "io.parse_ring_file": (_pre_parse, _nothing),
    "zring.build_ring": (_pre_build, _post_build),
    "ideals.enumerate_serre_ideals": (_nothing, _post_enumerate),
    "spectrum.serre_spec": (_nothing, _post_spec),
    "topology.build_topology": (_nothing, _post_topology),
    "cli.render_report": (_nothing, _post_render),
}
