"""Per-layer spans installed from outside qfun.

Each span named `<module>.<fn>` wraps one public function or method of a qfun
module, in every namespace that bound it (a module global, a name imported
into another module, or a class attribute and its aliases such as
`__radd__ = __add__`).  Spans record calls, self time (duration minus the
time of child spans) and, where an exception escapes, errors.

Spans at job and layer-entry boundaries (the outermost open span of each
module) are kept whole: name, start, end, parent, job id, up to MAX_WHOLE.
Inner spans of a module already open, and the hot arithmetic leaves (HOT),
which are called millions of times, keep only their count and self time.
"""

from __future__ import annotations

import importlib
import weakref
from collections import defaultdict
from time import perf_counter

# span -> (module, attribute path, workloads on which it must record calls).
# The workloads named are where the layer map predicts the span non-zero; a
# traced run on one of them that records zero calls fails.
LAYERS = {
    "laurent.gcd": ("qfun.laurent", "laurent_gcd", ("catalog", "rootvec", "queries")),
    "laurent.rf_mul": ("qfun.laurent", "RatFunc.__mul__", ("catalog", "rootvec", "queries")),
    "laurent.rf_add": ("qfun.laurent", "RatFunc.__add__", ("catalog", "rootvec", "queries")),
    "laurent.lp_mul": ("qfun.laurent", "LaurentPoly.__mul__",
                       ("catalog", "coproduct", "rootvec", "queries")),
    "freealg.nf_word": ("qfun.freealg", "AlgebraSpec.normal_form_word",
                        ("catalog", "coproduct", "rootvec", "queries")),
    "freealg.reduce_terms": ("qfun.freealg", "AlgebraSpec.reduce_terms",
                             ("catalog", "coproduct", "rootvec", "queries")),
    "freealg.graded_component": ("qfun.freealg", "graded_component_basis",
                                 ("rootvec", "queries")),
    "freealg.confluence": ("qfun.freealg", "confluence_check",
                           ("catalog", "coproduct", "rootvec", "queries")),
    "qmatrix.coproduct": ("qfun.qmatrix", "MatrixAlgebra.coproduct",
                          ("catalog", "coproduct", "rootvec", "queries")),
    "qmatrix.tensor": ("qfun.qmatrix", "TensorElement.__init__ TensorElement.__mul__",
                       ("catalog", "coproduct", "rootvec", "queries")),
    "qmatrix.init": ("qfun.qmatrix", "MatrixAlgebra.__init__",
                     ("catalog", "coproduct", "queries")),
    "qsl.init": ("qfun.qsl", "SLAlgebra.__init__", ("catalog", "rootvec", "queries")),
    "qsl.antipode": ("qfun.qsl", "SLAlgebra.antipode", ("catalog", "queries")),
    "intform.init": ("qfun.intform", "IntContext.__init__", ("catalog", "queries")),
    "intform.lift": ("qfun.intform", "IntContext.lift", ("catalog", "queries")),
    "intform.verify_relation_catalog": ("qfun.intform", "verify_relation_catalog", ("catalog",)),
    "intform.verify_hopf_catalog": ("qfun.intform", "verify_hopf_catalog", ("catalog",)),
    "intform.specialize_phi": ("qfun.intform", "specialize_phi", ("catalog", "queries")),
    "intform.poisson_cobracket": ("qfun.intform", "poisson_cobracket", ("catalog", "queries")),
    "classical.reference_cobracket": ("qfun.classical", "reference_cobracket",
                                      ("catalog", "queries")),
    "classical.ue_normal_form": ("qfun.classical", "LieStructure.ue_normal_form",
                                 ("catalog", "queries")),
    "uq.init": ("qfun.uq", "UqAlgebra.__init__", ("rootvec", "queries")),
    "uq.normalize": ("qfun.uq", "UqAlgebra.normalize", ("rootvec", "queries")),
    "uq.braid_T": ("qfun.uq", "braid_T", ("rootvec", "queries")),
    "uq.root_vector_lusztig": ("qfun.uq", "root_vector_lusztig", ("rootvec", "queries")),
    "uq.root_vector_iterated": ("qfun.uq", "root_vector_iterated", ("rootvec", "queries")),
    "uq.mu_init": ("qfun.uq", "MuMap.__init__", ("rootvec", "queries")),
    "uq.mu_apply": ("qfun.uq", "MuMap.apply", ("rootvec", "queries")),
    "suites.intform_suite": ("qfun.suites", "intform_suite", ("catalog",)),
    "suites.hopf_closure_suite": ("qfun.suites", "hopf_closure_suite", ("catalog",)),
    "suites.gl_central_suite": ("qfun.suites", "gl_central_suite", ("catalog",)),
    "suites.mu_suite": ("qfun.suites", "mu_suite", ("rootvec",)),
    "cli.run_command": ("qfun.cli", "run_command", ("queries",)),
}

MAX_WHOLE = 200_000

HOT = {"laurent.lp_mul", "laurent.rf_mul", "laurent.rf_add", "freealg.nf_word"}

# spans whose escaping exceptions are reported (NonTerminating and the CLI)
ERROR_SPANS = ("freealg.reduce_terms", "qsl.antipode", "cli.run_command")

QFUN_MODULES = ("qfun", "qfun.laurent", "qfun.freealg", "qfun.qmatrix", "qfun.qsl",
                "qfun.classical", "qfun.intform", "qfun.uq", "qfun.suites", "qfun.cli")


def per_layer_names():
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for span in LAYERS:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in ERROR_SPANS:
            names.append(f"{span}.errors")
    names += ["laurent.gcd.useful_ratio", "laurent.rf.unit_den_ratio",
              "freealg.nf_word.repeat_ratio", "trace.overhead", "trace.coverage"]
    return names


class Tracer:
    def __init__(self):
        self.stack = []       # open frames: [start, child seconds]
        self.open_full = []   # indices into self.spans of open whole spans
        self.spans = []       # whole spans: (name, start, end, parent, job)
        self.open_layers = defaultdict(int)
        self.dropped = 0      # layer entries past MAX_WHOLE
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.job_id = None
        self.job_s = 0.0
        self.covered_s = 0.0
        self.gcd_useful = 0
        self.rf_ops = 0
        self.rf_unit = 0
        self.nf_repeat = 0
        self._nf_seen = weakref.WeakKeyDictionary()
        self.namespaces = {}

    # -- installation ----------------------------------------------------------------

    def install(self):
        """Replace every binding of each traced callable; fail loudly if one
        is left unwrapped."""
        mods = [importlib.import_module(m) for m in QFUN_MODULES]
        originals = []
        for span, (modname, paths, _) in LAYERS.items():
            mod = importlib.import_module(modname)
            for path in paths.split():
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                wrapper = self._wrap(span, orig)
                bound = _rebind(mods, orig, wrapper)
                if not bound:
                    raise RuntimeError(f"span {span}: {path} is bound nowhere")
                self.namespaces[f"{span}:{path}"] = bound
                originals.append((span, orig))
        for span, orig in originals:
            left = _rebind(mods, orig, None)
            if left:
                raise RuntimeError(f"span {span}: unwrapped binding left in {left}")

    def _wrap(self, name, fn):
        stack, spans, open_full = self.stack, self.spans, self.open_full
        calls, self_s, errors = self.calls, self.self_s, self.errors
        open_layers = self.open_layers
        clock = perf_counter
        tracer = self
        hot = name in HOT
        layer = name.split(".")[0]
        probe = {
            "laurent.gcd": self._probe_gcd,
            "laurent.rf_mul": self._probe_rf,
            "laurent.rf_add": self._probe_rf,
            "freealg.nf_word": self._probe_nf,
        }.get(name)

        def wrapper(*args, **kwargs):
            whole = not hot and not open_layers[layer]
            if whole:
                open_layers[layer] += 1
                if len(spans) < MAX_WHOLE:
                    idx = len(spans)
                    spans.append(None)
                    parent = open_full[-1] if open_full else None
                    open_full.append(idx)
                else:
                    tracer.dropped += 1
                    whole = False
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if whole:
                    open_layers[layer] -= 1
                    open_full.pop()
                    spans[idx] = (name, frame[0], end, parent, tracer.job_id)
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _probe_gcd(self, args, result):
        if not result.is_one():
            self.gcd_useful += 1

    def _probe_rf(self, args, result):
        self.rf_ops += 1
        a, b = args
        # an int or LaurentPoly operand has no den: it is coerced to den 1
        den = getattr(b, "den", None)
        if a.den.is_one() and (den is None or den.is_one()):
            self.rf_unit += 1

    def _probe_nf(self, args, result):
        spec, word = args
        seen = self._nf_seen.get(spec)
        if seen is None:
            seen = self._nf_seen[spec] = set()
        if word in seen:
            self.nf_repeat += 1
        else:
            seen.add(word)

    # -- jobs ----------------------------------------------------------------------------

    def begin_job(self, job_id):
        self.job_id = job_id
        frame = [perf_counter(), 0.0]
        self.stack.append(frame)
        idx = len(self.spans)
        self.spans.append(None)
        self.open_full.append(idx)
        return frame, idx

    def end_job(self, token):
        frame, idx = token
        end = perf_counter()
        # inner spans pop their frames in finally, so even after an
        # exception the job's frame is on top
        self.stack.pop()
        self.open_full.pop()
        self.spans[idx] = ("job", frame[0], end, None, self.job_id)
        self.job_s += end - frame[0]
        self.covered_s += frame[1]
        self.job_id = None

    # -- results --------------------------------------------------------------------------

    def metrics(self, passes, workload):
        """Per-pass means of every per-layer metric; raises when a span the
        layer map predicts non-zero on this workload recorded no call."""
        missing = [s for s, (_, _, where) in LAYERS.items()
                   if workload in where and not self.calls[s]]
        if missing:
            raise RuntimeError(f"spans predicted non-zero on {workload} recorded no "
                               f"calls: {', '.join(missing)}")
        out = {}
        for span in LAYERS:
            out[f"{span}.calls"] = (self.calls[span] / passes, "count")
            out[f"{span}.self_s"] = (self.self_s[span] / passes, "s")
            if span in ERROR_SPANS:
                out[f"{span}.errors"] = (self.errors[span] / passes, "count")
        out["laurent.gcd.useful_ratio"] = (
            _ratio(self.gcd_useful, self.calls["laurent.gcd"]), "ratio")
        out["laurent.rf.unit_den_ratio"] = (_ratio(self.rf_unit, self.rf_ops), "ratio")
        out["freealg.nf_word.repeat_ratio"] = (
            _ratio(self.nf_repeat, self.calls["freealg.nf_word"]), "ratio")
        out["trace.coverage"] = (_ratio(self.covered_s, self.job_s), "ratio")
        return out


def _ratio(a, b):
    return a / b if b else 0.0


def split_report(workload, tracer, passes):
    """Lines that state the layer split predicted for the workload and
    whether this traced run shows it.  Informational: a change that moves
    work between layers is expected to change them."""
    self_s = {k: v / passes for k, v in tracer.self_s.items() if v}
    total = sum(self_s.values()) or 1.0
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    lines = ["split: largest self time per pass: " + ", ".join(
        f"{k} {v:.3f}s ({v / total:.0%})" for k, v in top)]
    if workload == "coproduct":
        calls = tracer.calls["laurent.gcd"]
        lines.append(f"split: laurent.gcd.calls = 0 -> {calls == 0} ({calls})")
    elif workload == "catalog":
        lines.append(f"split: laurent.gcd has the largest self time -> "
                     f"{top[0][0] == 'laurent.gcd'}")
    elif workload == "rootvec":
        share = sum(v for k, v in self_s.items()
                    if k.startswith("laurent.") or k == "freealg.graded_component") / total
        lines.append(f"split: freealg.graded_component + laurent.* carry most "
                     f"self time -> {share > 0.5} ({share:.0%})")
    elif workload == "queries":
        # confluence_check is never nested in itself: its whole spans give
        # its inclusive time, hot leaves such as nf_word included
        inclusive = sum(e - b for name, b, e, _, _ in tracer.spans
                        if name == "freealg.confluence") / passes
        lines.append(f"split: freealg.confluence has the largest self time -> "
                     f"{top[0][0] == 'freealg.confluence'}; inclusive "
                     f"{inclusive:.3f}s per pass ({inclusive / total:.0%} of traced time)")
    return lines


def _rebind(mods, orig, wrapper):
    """Replace (or, with wrapper None, list) every binding of orig in the
    qfun modules and in their classes."""
    found = []
    for mod in mods:
        for ns_name, ns in [(mod.__name__, mod)] + [
            (f"{v.__module__}.{v.__qualname__}", v) for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.startswith("qfun")
        ]:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    found.append(f"{ns_name}.{key}")
                    if wrapper is not None:
                        setattr(ns, key, wrapper)
    return sorted(set(found))
