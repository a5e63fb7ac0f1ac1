"""Project-invariant lint rules for the repro codebase.

Each rule encodes an invariant the paper's correctness story depends on
but that the test suite only samples:

=====  ==============================================================
R001   no unseeded RNG or wall-clock reads inside deterministic paths
R002   facade discipline: external code imports only ``repro`` /
       ``repro.api`` top-level names
R003   overflow discipline: u8/i16 integer arithmetic in kernels and
       scoring must flow through the saturation guardrail helpers
R004   lock discipline: ``# guarded-by: <lock>`` attributes may only
       be touched inside a ``with self.<lock>:`` block
R005   frozen-dataclass mutation and swallowed exceptions
=====  ==============================================================

Rules are pure AST visitors: they receive a parsed module, the raw
source lines (for comment-directed rules such as R004) and the
repo-relative path, and emit :class:`Finding` objects.  Line numbers
are advisory; the stable identity of a finding — used by the pragma
and baseline machinery — is ``rule::path::symbol``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific site."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    @property
    def key(self) -> str:
        """Stable identity: survives unrelated edits that shift lines."""
        return f"{self.rule}::{self.path}::{self.symbol}"


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute/name chains to a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _norm(path: str) -> str:
    return path.replace("\\", "/")


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement check()."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, path: str) -> bool:
        raise NotImplementedError

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> List[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# R001: determinism — no unseeded RNG / wall clock in deterministic paths
# ---------------------------------------------------------------------------

DETERMINISTIC_DIRS = (
    "src/repro/kernels/",
    "src/repro/cpu/",
    "src/repro/scoring/",
    "src/repro/pipeline/",
    "src/repro/gpu/",
    "src/repro/scan/",
    # the engine registry dispatches every scoring path (including the
    # cross-sequence batched kernels and the mp backend's chunk seeding):
    # a wall-clock or ambient-RNG call here would silently break the
    # bit-identical contract for every engine at once
    "src/repro/engines.py",
    # the overload plane must run on injected clocks only: admission
    # pricing and watchdog budgets come from the cost model, never from
    # wall time, so soak tests replay bit-identically
    "src/repro/service/admission.py",
    "src/repro/service/watchdog.py",
    # the WAL carries no timestamps at all: recovery must replay to the
    # same bytes regardless of when the journal was written
    "src/repro/service/wal.py",
)

# numpy module-level sampling calls that use unseeded global state
_NP_RANDOM_SAMPLERS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "poisson", "binomial", "exponential", "gumbel",
    "beta", "gamma", "bytes", "seed",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "date.today",
}


class UnseededRandomnessRule(Rule):
    id = "R001"
    title = "unseeded RNG / wall clock in deterministic path"
    rationale = (
        "Filter scores must be bit-identical across engines and runs; "
        "global-state RNG and wall-clock reads break replayability."
    )

    def applies_to(self, path: str) -> bool:
        return _norm(path).startswith(DETERMINISTIC_DIRS)

    def check(self, tree, lines, path):
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.split(".")
            if (
                len(tail) >= 3
                and tail[-3] in ("np", "numpy")
                and tail[-2] == "random"
                and tail[-1] in _NP_RANDOM_SAMPLERS
            ):
                findings.append(
                    Finding(
                        self.id, path, node.lineno, name,
                        f"{name}() draws from numpy's unseeded global RNG "
                        "inside a deterministic path; thread an explicit "
                        "seeded Generator through instead",
                    )
                )
            elif name.endswith("default_rng") and self._unseeded(node):
                findings.append(
                    Finding(
                        self.id, path, node.lineno, name,
                        "default_rng() without a seed is entropy-seeded; "
                        "pass an explicit seed in deterministic paths",
                    )
                )
            elif name in _WALL_CLOCK or any(
                name.endswith("." + w) for w in ("time.time", "datetime.now")
            ):
                if name in _WALL_CLOCK:
                    findings.append(
                        Finding(
                            self.id, path, node.lineno, name,
                            f"{name}() reads the wall clock inside a "
                            "deterministic path; use a caller-supplied "
                            "clock or time.perf_counter in obs/ layers",
                        )
                    )
        return findings

    @staticmethod
    def _unseeded(call: ast.Call) -> bool:
        if call.keywords:
            return False
        if not call.args:
            return True
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None


# ---------------------------------------------------------------------------
# R002: facade discipline for code outside src/repro/
# ---------------------------------------------------------------------------

EXTERNAL_DIRS = ("examples/", "benchmarks/", "tools/", "docs/")

_ALLOWED_SUBMODULES = {"api"}


class FacadeDisciplineRule(Rule):
    id = "R002"
    title = "deep repro import outside the facade"
    rationale = (
        "External code coupling to internal module paths blocks the "
        "ROADMAP's refactor-freely goal; only repro / repro.api are "
        "stable surfaces."
    )

    def applies_to(self, path: str) -> bool:
        return _norm(path).startswith(EXTERNAL_DIRS)

    def check(self, tree, lines, path):
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._flag(findings, path, node.lineno, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import, not a repro coupling
                    continue
                self._flag(findings, path, node.lineno, node.module or "")
        return findings

    def _flag(self, findings: List[Finding], path: str, line: int,
              module: str) -> None:
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) == 1:
            return
        if parts[1] in _ALLOWED_SUBMODULES:
            return
        findings.append(
            Finding(
                self.id, path, line, module,
                f"import of internal module '{module}'; external code may "
                "only use 'import repro' / 'from repro import ...' or "
                "repro.api",
            )
        )


# ---------------------------------------------------------------------------
# R003: overflow discipline in kernels/ and scoring/
# ---------------------------------------------------------------------------

OVERFLOW_DIRS = ("src/repro/kernels/", "src/repro/scoring/")

# modules that ARE the guardrail layer
_OVERFLOW_EXEMPT = ("src/repro/scoring/quantized.py",)

_SAT_BOUND_NAMES = {"MSV_BYTE_MAX", "VF_WORD_MIN", "VF_WORD_MAX"}
_SAT_BOUND_LITERALS = {0, 255, 32767, -32768}
_NARROW_DTYPES = {"np.uint8", "numpy.uint8", "np.int16", "numpy.int16"}


class OverflowDisciplineRule(Rule):
    id = "R003"
    title = "hand-rolled saturation / narrow-dtype arithmetic"
    rationale = (
        "u8/i16 fixed-point math must saturate exactly like the SSE and "
        "CUDA reference; the sat_* helpers in scoring.quantized are the "
        "single audited implementation."
    )

    def applies_to(self, path: str) -> bool:
        p = _norm(path)
        return p.startswith(OVERFLOW_DIRS) and p not in _OVERFLOW_EXEMPT

    def check(self, tree, lines, path):
        findings: List[Finding] = []
        findings.extend(self._clip_findings(tree, path))
        findings.extend(self._dtype_flow_findings(tree, path))
        return findings

    # -- sub-check (a): np.clip with saturation bounds -----------------
    def _clip_findings(self, tree, path):
        out: List[Finding] = []
        certified = self._certified_clip_lines(tree, path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name not in ("np.clip", "numpy.clip"):
                continue
            if node.lineno in certified:
                continue
            if any(self._is_sat_bound(a) for a in node.args[1:]):
                out.append(
                    Finding(
                        self.id, path, node.lineno, "np.clip",
                        "np.clip with saturation bounds re-implements the "
                        "guardrail; use sat_add_u8/sat_add_i16/clip_i16 "
                        "from repro.scoring.quantized",
                    )
                )
        return out

    @staticmethod
    def _certified_clip_lines(tree, path):
        """Encode-step clips the interval prover certifies in-range.

        The quantizer construction clips (profile encode) are the
        sanctioned boundary where float scores *enter* the narrow
        systems; the prover checks their bounds semantically, so the
        syntactic ban does not apply.  Failure of the prover keeps the
        finding (fail-safe: an empty set changes nothing).
        """
        try:
            from .absint import certified_clip_lines

            return certified_clip_lines(tree, path)
        except Exception:
            return frozenset()

    @staticmethod
    def _is_sat_bound(node: ast.AST) -> bool:
        name = dotted_name(node)
        if name is not None and name.split(".")[-1] in _SAT_BOUND_NAMES:
            return True
        if isinstance(node, ast.Constant):
            return node.value in _SAT_BOUND_LITERALS
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = node.operand
            if isinstance(inner, ast.Constant):
                return -inner.value in _SAT_BOUND_LITERALS
        return False

    # -- sub-check (b): +/-/* on names tagged with narrow dtypes -------
    def _dtype_flow_findings(self, tree, path):
        out: List[Finding] = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tagged = self._tagged_names(fn)
            if not tagged:
                continue
            for node in ast.walk(fn):
                target = None
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    for side in (node.left, node.right):
                        nm = dotted_name(side)
                        if nm in tagged:
                            target = (nm, node.lineno)
                            break
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    nm = dotted_name(node.target)
                    if nm in tagged:
                        target = (nm, node.lineno)
                if target is not None:
                    nm, line = target
                    out.append(
                        Finding(
                            self.id, path, line, f"{fn.name}:{nm}",
                            f"raw arithmetic on narrow-dtype array '{nm}' "
                            f"in {fn.name}(); route through the sat_* "
                            "guardrail helpers (widen first if exact)",
                        )
                    )
        return out

    @staticmethod
    def _tagged_names(fn: ast.AST) -> Set[str]:
        tagged: Set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            narrow = False
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    callee = dotted_name(sub.func)
                    if callee in _NARROW_DTYPES:
                        narrow = True
                    elif callee is not None and callee.endswith(".astype"):
                        for a in sub.args:
                            if dotted_name(a) in _NARROW_DTYPES:
                                narrow = True
                    for kw in sub.keywords:
                        if kw.arg == "dtype" and (
                            dotted_name(kw.value) in _NARROW_DTYPES
                        ):
                            narrow = True
            if narrow:
                for t in node.targets:
                    nm = dotted_name(t)
                    if nm:
                        tagged.add(nm)
        return tagged


# ---------------------------------------------------------------------------
# R004: lock discipline in service/
# ---------------------------------------------------------------------------

LOCK_DIRS = ("src/repro/service/", "src/repro/scan/")

_GUARD_MARKER = "# guarded-by:"
_LOCK_EXEMPT_METHODS = {"__init__", "__post_init__", "__repr__"}


class LockDisciplineRule(Rule):
    id = "R004"
    title = "guarded attribute touched outside its lock"
    rationale = (
        "The batch service is shared across scheduler threads; an "
        "attribute annotated '# guarded-by: <lock>' is part of a "
        "documented synchronization protocol."
    )

    def applies_to(self, path: str) -> bool:
        return _norm(path).startswith(LOCK_DIRS)

    def check(self, tree, lines, path):
        findings: List[Finding] = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guarded = self._guarded_attrs(cls, lines)
            if not guarded:
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name in _LOCK_EXEMPT_METHODS:
                    continue
                findings.extend(
                    self._check_method(cls.name, fn, guarded, path)
                )
        return findings

    @staticmethod
    def _guarded_attrs(cls: ast.ClassDef, lines) -> dict:
        """Map attribute name -> lock name from # guarded-by comments."""
        guarded = {}
        # class-level dataclass fields
        for node in cls.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if _GUARD_MARKER not in line:
                continue
            lock = line.split(_GUARD_MARKER, 1)[1].strip()
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for t in targets:
                if isinstance(t, ast.Name):
                    guarded[t.id] = lock
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name not in ("__init__", "__post_init__"):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
                if _GUARD_MARKER not in line:
                    continue
                lock = line.split(_GUARD_MARKER, 1)[1].strip()
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    name = dotted_name(t)
                    if name and name.startswith("self."):
                        guarded[name[len("self."):]] = lock
        return guarded

    def _check_method(self, cls_name, fn, guarded, path):
        findings: List[Finding] = []

        def visit(node, held: Tuple[str, ...]):
            if isinstance(node, ast.With):
                locks = held
                for item in node.items:
                    ctx = item.context_expr
                    nm = dotted_name(ctx)
                    if nm is None and isinstance(ctx, ast.Call):
                        nm = dotted_name(ctx.func)
                    if nm and nm.startswith("self."):
                        locks = locks + (nm[len("self."):],)
                for child in node.body:
                    visit(child, locks)
                return
            if isinstance(node, ast.Attribute):
                full = dotted_name(node)
                if full and full.startswith("self."):
                    attr = full.split(".")[1]
                    lock = guarded.get(attr)
                    if lock is not None:
                        lock_attr = lock[len("self."):] if lock.startswith(
                            "self."
                        ) else lock
                        if lock_attr not in held:
                            findings.append(
                                Finding(
                                    self.id, path, node.lineno,
                                    f"{cls_name}.{fn.name}:{attr}",
                                    f"'{attr}' is guarded-by {lock} but "
                                    f"{cls_name}.{fn.name}() touches it "
                                    f"outside 'with self.{lock_attr}:'",
                                )
                            )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in fn.body:
            visit(stmt, ())
        # one finding per (method, attr) is enough
        seen: Set[str] = set()
        deduped = []
        for f in findings:
            if f.symbol not in seen:
                seen.add(f.symbol)
                deduped.append(f)
        return deduped


# ---------------------------------------------------------------------------
# R005: frozen-dataclass mutation and swallowed exceptions
# ---------------------------------------------------------------------------

INTERNAL_DIRS = ("src/repro/",)

_SETATTR_EXEMPT = {"__init__", "__post_init__", "__new__", "__setstate__"}


class MutationAndSwallowRule(Rule):
    id = "R005"
    title = "frozen-dataclass mutation / swallowed exception"
    rationale = (
        "Frozen dataclasses are the immutability contract of the options "
        "and profile layers; bare/swallowed excepts hide kernel and "
        "service failures the resilience layer is designed to surface."
    )

    def applies_to(self, path: str) -> bool:
        return _norm(path).startswith(INTERNAL_DIRS)

    def check(self, tree, lines, path):
        findings: List[Finding] = []
        findings.extend(self._except_findings(tree, path))
        findings.extend(self._frozen_findings(tree, path))
        findings.extend(self._setattr_findings(tree, path))
        return findings

    def _except_findings(self, tree, path):
        out: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                out.append(
                    Finding(
                        self.id, path, node.lineno, "bare-except",
                        "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                        "catch ReproError (or Exception) explicitly",
                    )
                )
                continue
            if all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            ):
                out.append(
                    Finding(
                        self.id, path, node.lineno, "swallowed-except",
                        "exception handler silently discards the error; "
                        "log it, re-raise, or record it on a counter",
                    )
                )
        return out

    def _frozen_findings(self, tree, path):
        out: List[Finding] = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not self._is_frozen(cls):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name in _SETATTR_EXEMPT:
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for t in targets:
                            nm = dotted_name(t)
                            if nm and nm.startswith("self."):
                                out.append(
                                    Finding(
                                        self.id, path, node.lineno,
                                        f"{cls.name}.{fn.name}:{nm}",
                                        f"assignment to {nm} inside frozen "
                                        f"dataclass {cls.name} will raise "
                                        "FrozenInstanceError at runtime",
                                    )
                                )
        return out

    def _setattr_findings(self, tree, path):
        out: List[Finding] = []

        def scan(fn_name: str, body: Iterable[ast.AST]):
            for stmt in body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    name = dotted_name(node.func)
                    if name != "object.__setattr__":
                        continue
                    if fn_name in _SETATTR_EXEMPT:
                        continue
                    out.append(
                        Finding(
                            self.id, path, node.lineno,
                            f"{fn_name}:object.__setattr__",
                            "object.__setattr__ outside __init__/"
                            "__post_init__ defeats the frozen contract",
                        )
                    )

        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    scan(fn.name, fn.body)
        return out

    @staticmethod
    def _is_frozen(cls: ast.ClassDef) -> bool:
        for dec in cls.decorator_list:
            if isinstance(dec, ast.Call):
                if dotted_name(dec.func) in ("dataclass", "dataclasses.dataclass"):
                    for kw in dec.keywords:
                        if kw.arg == "frozen" and (
                            isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            return True
        return False


ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomnessRule(),
    FacadeDisciplineRule(),
    OverflowDisciplineRule(),
    LockDisciplineRule(),
    MutationAndSwallowRule(),
)

RULES_BY_ID = {r.id: r for r in ALL_RULES}
