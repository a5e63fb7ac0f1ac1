"""Interval abstract interpretation for the quantized filter kernels.

``repro-lint --prove`` runs this module over the kernel and scoring
sources and emits, per function, a *proof certificate*: the list of
every u8/i16 **obligation site** (arithmetic on a native narrow array,
a store into a narrow or system-tagged carrier, a narrowing cast) with
the abstract interval the interpreter derived for it and a status:

``proven``
    the interval is contained in the dtype range - the operation can
    never wrap;
``by_helper``
    the value flows through one of the audited saturation helpers
    (``sat_add_u8`` / ``sat_add_i16`` / ``clip_i16`` /
    ``np.clip`` with constant saturation bounds), whose summaries clamp
    the interval by construction;
``unproven``
    none of the above - the interval can escape the dtype range.

The abstract domain is non-relational, except for one order fact per
array that an in-place ``np.minimum`` / ``np.maximum`` leaves behind
(the u8 clamp-before-add identities): an :class:`AbsVal` is a numeric
interval ``[lo, hi]`` (bounds may be infinite) plus a *native* narrow
dtype tag (the array really is uint8/int16 in memory - wrap risk), a
*system* tag (a wide int32/int64 carrier that semantically holds u8 or
i16 scores - the invariant the certificate proves), and for profile
objects the set of possible classes.  Seeds come from the quantizer
encode steps: every byte cost is clipped into ``[0, 255]`` and every
word score into ``[-32768, 32767]`` at profile-construction time (with
transition/special log-prob scores additionally non-positive), so
``PROFILE_SEEDS`` below is the machine-checked restatement of
:mod:`repro.scoring.msv_profile` / :mod:`repro.scoring.vit_profile`.

Documented assumptions (see docs/static_analysis.md):

* ``np.empty`` carriers are written before they are read (they are
  tagged with the empty interval); wide ``np.empty`` scratch is not a
  system carrier until written;
* cross-module helper summaries (the warp max reductions) match the
  helpers' own verified behaviour;
* inlined intra-module callees are additionally analyzed standalone,
  their unannotated parameters seeded with the top interval.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .rules import Finding, Rule, dotted_name

__all__ = [
    "AbsVal",
    "Site",
    "FunctionProof",
    "ModuleProof",
    "PROVE_TARGETS",
    "ENCODE_MODULES",
    "IntervalProverRule",
    "analyze_module",
    "analyze_source",
    "certified_clip_lines",
    "certificate_doc",
]

INF = float("inf")

#: Inclusive value ranges of the modelled fixed-point systems.
DTYPE_RANGES: Dict[str, Tuple[float, float]] = {
    "u8": (0.0, 255.0),
    "i16": (-32768.0, 32767.0),
    "i32": (float(-(2**31)), float(2**31 - 1)),
    "i64": (float(-(2**63)), float(2**63 - 1)),
}

#: Modules the prover certifies (the kernels, the CPU lockstep scorers
#: they share, and the construction-time quantizer encode steps that
#: define the seeds).
PROVE_TARGETS: Tuple[str, ...] = (
    "src/repro/kernels/msv_warp.py",
    "src/repro/kernels/viterbi_warp.py",
    "src/repro/kernels/batched.py",
    "src/repro/cpu/msv_reference.py",
    "src/repro/cpu/viterbi_reference.py",
    "src/repro/scoring/msv_profile.py",
    "src/repro/scoring/vit_profile.py",
)

#: Encode modules whose constant-bound np.clip calls the prover
#: certifies (discharging the two historical R003 baseline entries).
ENCODE_MODULES: Tuple[str, ...] = (
    "src/repro/scoring/msv_profile.py",
    "src/repro/scoring/vit_profile.py",
)

#: Default semantic system per target module, used for functions whose
#: profile parameter annotation does not already pin one.
_MODULE_SYSTEMS: Dict[str, Optional[str]] = {
    "src/repro/kernels/msv_warp.py": "u8",
    "src/repro/kernels/viterbi_warp.py": "i16",
    "src/repro/kernels/batched.py": None,
    "src/repro/cpu/msv_reference.py": "u8",
    "src/repro/cpu/viterbi_reference.py": "i16",
    "src/repro/scoring/msv_profile.py": "u8",
    "src/repro/scoring/vit_profile.py": "i16",
}

_SYSTEM_OF_PROFILE = {
    "MSVByteProfile": "u8",
    "ViterbiWordProfile": "i16",
    "PackedWordProfile": "i16",
    "PackedByteProfile": "u8",
}

#: Quantization constants resolvable by (final) name.
KNOWN_CONSTANTS: Dict[str, int] = {
    "MSV_BYTE_MAX": 255,
    "VF_WORD_MIN": -32768,
    "VF_WORD_MAX": 32767,
    "MSV_BASE": 190,
    "VF_BASE": 12000,
    "U8_ZERO": 0,
    "I16_NEG_INF": -32768,
    "WARP_SIZE": 32,
}

_CAST_NAMES = {"uint8": "u8", "int16": "i16", "int32": "i32", "int64": "i64"}


@dataclass(frozen=True)
class AbsVal:
    """Abstract value: interval + dtype/system/object tags.

    ``lo > hi`` encodes the empty interval (e.g. an ``np.empty``
    carrier before its first store).
    """

    lo: float = -INF
    hi: float = INF
    kind: str = "num"  # num | bool | float | obj | top
    native: Optional[str] = None  # the array really is u8/i16 in memory
    tagged: Optional[str] = None  # wide carrier semantically holding u8/i16
    obj_types: Tuple[str, ...] = ()

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    def in_range(self, system: str) -> bool:
        if self.is_bottom:
            return True
        rlo, rhi = DTYPE_RANGES[system]
        return self.lo >= rlo and self.hi <= rhi


TOP = AbsVal()
TOP_FLOAT = AbsVal(kind="float")
BOOL = AbsVal(0.0, 1.0, kind="bool")
BOTTOM = AbsVal(INF, -INF)


def mk(lo: float, hi: float, **kw: object) -> AbsVal:
    return AbsVal(lo=float(lo), hi=float(hi), **kw)  # type: ignore[arg-type]


def const_val(v: object) -> AbsVal:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return mk(v, v)
    if isinstance(v, float):
        if v != v or v in (INF, -INF):
            return TOP_FLOAT
        return mk(v, v, kind="float")
    return TOP


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return AbsVal(
        lo=min(a.lo, b.lo),
        hi=max(a.hi, b.hi),
        kind=a.kind if a.kind == b.kind else "num",
        native=a.native if a.native == b.native else None,
        tagged=a.tagged if a.tagged == b.tagged else None,
        obj_types=tuple(sorted(set(a.obj_types) | set(b.obj_types))),
    )


def _add(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return mk(a.lo + b.lo, a.hi + b.hi)


def _sub(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return mk(a.lo - b.hi, a.hi - b.lo)


def _mul(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_bottom or b.is_bottom:
        return BOTTOM

    def prod(x: float, y: float) -> float:
        if x == 0.0 or y == 0.0:  # 0 * inf -> 0 under our semantics
            return 0.0
        return x * y

    cands = [prod(a.lo, b.lo), prod(a.lo, b.hi), prod(a.hi, b.lo), prod(a.hi, b.hi)]
    return mk(min(cands), max(cands))


def _max_iv(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    out = mk(max(a.lo, b.lo), max(a.hi, b.hi))
    if a.native is not None and a.native == b.native:
        out = replace(out, native=a.native)
    return out


def _min_iv(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return mk(min(a.lo, b.lo), min(a.hi, b.hi))


def _clip_iv(a: AbsVal, lo: float, hi: float) -> AbsVal:
    """Interval of ``np.clip(a, lo, hi)`` with constant bounds."""
    if a.is_bottom:
        return BOTTOM
    return mk(min(max(a.lo, lo), hi), min(max(a.hi, lo), hi))


# ---------------------------------------------------------------------------
# seeds: the quantizer encode steps, restated as intervals
# ---------------------------------------------------------------------------

_U8 = {"lo": 0.0, "hi": 255.0}
_I16 = {"lo": -32768.0, "hi": 32767.0}
_NEG_I16 = {"lo": -32768.0, "hi": 0.0}

#: attr -> AbsVal per profile class.  Every array/int here is produced
#: by _unbiased_byteify / _wordify, which clip into the system range at
#: construction time; transition and special scores are quantized
#: log-probabilities and therefore non-positive.
PROFILE_SEEDS: Dict[str, Dict[str, AbsVal]] = {
    "MSVByteProfile": {
        "M": mk(1, INF),
        "L": mk(0, INF),
        "rbv": mk(**_U8),
        "tbm": mk(**_U8),
        "tec": mk(**_U8),
        "tjb": mk(**_U8),
        "bias": mk(**_U8),
        "base": mk(190, 190),
        "scale": TOP_FLOAT,
        "overflow_threshold": mk(**_U8),
        "init_xB": mk(**_U8),
        "emission_row": mk(**_U8),
        "final_score_nats": TOP_FLOAT,
        "bits_from_nats": TOP_FLOAT,
    },
    "ViterbiWordProfile": {
        "M": mk(1, INF),
        "L": mk(0, INF),
        "rwv": mk(**_I16),
        "tbm": mk(**_NEG_I16),
        "enter_mm": mk(**_NEG_I16),
        "enter_im": mk(**_NEG_I16),
        "enter_dm": mk(**_NEG_I16),
        "tmi": mk(**_NEG_I16),
        "tii": mk(**_NEG_I16),
        "tmd": mk(**_NEG_I16),
        "tdd": mk(**_NEG_I16),
        "xE_move": mk(**_NEG_I16),
        "xE_loop": mk(**_NEG_I16),
        "xNJ_move": mk(**_NEG_I16),
        "base": mk(12000, 12000),
        "scale": TOP_FLOAT,
        "overflow_threshold": mk(32767, 32767),
        "init_xB": mk(-20768, 12000),
        "emission_row": mk(**_I16),
        "final_score_nats": TOP_FLOAT,
        "bits_from_nats": TOP_FLOAT,
    },
    # a launch group's word profiles padded to its largest M: every pad
    # entry is the -32768 floor, so each stacked table keeps its
    # one-model interval (tbm is per node, the specials per model)
    "PackedWordProfile": {
        "M": mk(1, INF),
        "rwv": mk(**_I16),
        "tbm": mk(**_NEG_I16),
        "enter_mm": mk(**_NEG_I16),
        "enter_im": mk(**_NEG_I16),
        "enter_dm": mk(**_NEG_I16),
        "tmi": mk(**_NEG_I16),
        "tii": mk(**_NEG_I16),
        "xE_move": mk(**_NEG_I16),
        "xE_loop": mk(**_NEG_I16),
        "xNJ_move": mk(**_NEG_I16),
        "base": mk(12000, 12000),
        "scale": TOP_FLOAT,
        "overflow_threshold": mk(32767, 32767),
        "init_xB": mk(-20768, 12000),
    },
    # a launch group's byte profiles padded to its largest M: every pad
    # cost is 255, inside the one-model range, and every scalar is one
    # (G,) entry per model
    "PackedByteProfile": {
        "M": mk(1, INF),
        "rbv": mk(**_U8),
        "tbm": mk(**_U8),
        "tec": mk(**_U8),
        "tjb": mk(**_U8),
        "bias": mk(**_U8),
        "base": mk(190, 190),
        "overflow_threshold": mk(**_U8),
        "init_xB": mk(**_U8),
    },
}


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class Site:
    """One obligation (or helper/clip discharge) in a function."""

    line: int
    function: str
    kind: str  # arith | store | cast | helper | clip
    detail: str
    system: Optional[str]
    lo: float
    hi: float
    status: str  # proven | by_helper | unproven

    def to_doc(self) -> Dict[str, object]:
        def bound(x: float) -> object:
            if x == INF:
                return "inf"
            if x == -INF:
                return "-inf"
            return int(x)

        return {
            "line": self.line,
            "function": self.function,
            "kind": self.kind,
            "detail": self.detail,
            "system": self.system,
            "interval": [bound(self.lo), bound(self.hi)],
            "status": self.status,
        }


@dataclass
class FunctionProof:
    name: str
    sites: List[Site] = field(default_factory=list)

    @property
    def unproven(self) -> List[Site]:
        return [s for s in self.sites if s.status == "unproven"]

    @property
    def proven(self) -> bool:
        return not self.unproven

    def to_doc(self) -> Dict[str, object]:
        return {
            "function": self.name,
            "proven": self.proven,
            "sites": [s.to_doc() for s in self.sites],
        }


@dataclass
class ModuleProof:
    path: str
    functions: List[FunctionProof] = field(default_factory=list)

    @property
    def certified_clip_lines(self) -> frozenset:
        lines = set()
        for fn in self.functions:
            for s in fn.sites:
                if s.kind == "clip" and s.status != "unproven":
                    lines.add(s.line)
        return frozenset(lines)

    @property
    def unproven(self) -> List[Site]:
        return [s for fn in self.functions for s in fn.unproven]

    def to_doc(self) -> Dict[str, object]:
        n_sites = sum(len(fn.sites) for fn in self.functions)
        return {
            "path": self.path,
            "proven": not self.unproven,
            "sites": n_sites,
            "unproven": len(self.unproven),
            "functions": [fn.to_doc() for fn in self.functions],
        }


def _short(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        text = type(node).__name__
    text = " ".join(text.split())
    return text if len(text) <= 60 else text[:57] + "..."


# ---------------------------------------------------------------------------
# symbolic origins (for the clamp-before-add order facts)
# ---------------------------------------------------------------------------

Origin = Tuple[object, ...]


def _origin(node: ast.AST, env: Dict[str, Origin],
            names: bool = False) -> Optional[Origin]:
    """Symbolic identity of an expression.  With ``names`` a local name
    of unknown origin stands for itself: sound only while that name is
    not rebound, which an order fact guarantees by dying with it."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return ("const", node.value)
    name = dotted_name(node)
    if name is not None:
        tail = name.split(".")[-1]
        if tail in KNOWN_CONSTANTS:
            return ("const", KNOWN_CONSTANTS[tail])
        if isinstance(node, ast.Name):
            return env.get(name, ("name", name) if names else None)
        return ("sym", name)
    if isinstance(node, ast.Call) and len(node.args) == 1:
        fn = dotted_name(node.func)
        if fn is not None and fn.split(".")[-1] in _CAST_NAMES:
            # casts are origin-transparent
            return _origin(node.args[0], env, names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _origin(node.left, env, names)
        right = _origin(node.right, env, names)
        if left is not None and right is not None:
            op = "add" if isinstance(node.op, ast.Add) else "sub"
            return (op, left, right)
    return None


# ---------------------------------------------------------------------------
# module context
# ---------------------------------------------------------------------------


@dataclass
class _ModuleCtx:
    path: str
    system: Optional[str]
    functions: Dict[str, ast.FunctionDef]
    module_env: Dict[str, AbsVal]


def _annotation_names(node: Optional[ast.AST]) -> List[str]:
    if node is None:
        return []
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.extend(
                tok for tok in sub.value.replace("|", " ").split() if tok.isidentifier()
            )
    return out


def _fn_system(fn: ast.FunctionDef, module_system: Optional[str]) -> Optional[str]:
    for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
        for name in _annotation_names(arg.annotation):
            if name in _SYSTEM_OF_PROFILE:
                return _SYSTEM_OF_PROFILE[name]
    return module_system


def _param_seed(arg: ast.arg) -> AbsVal:
    classes = tuple(
        n for n in _annotation_names(arg.annotation) if n in PROFILE_SEEDS
    )
    if classes:
        return AbsVal(kind="obj", obj_types=classes)
    return TOP


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------

_SAT_HELPERS = {"sat_add_u8", "sat_sub_u8", "sat_add_i16", "clip_i16"}

_MAX_LOOP_ITER = 10
_WIDEN_AFTER = 4
_MAX_INLINE_DEPTH = 3


class _Interp:
    def __init__(
        self,
        ctx: _ModuleCtx,
        fn: ast.FunctionDef,
        seeds: Dict[str, AbsVal],
        depth: int = 0,
        record: bool = True,
    ) -> None:
        self.ctx = ctx
        self.fn = fn
        self.system = _fn_system(fn, ctx.system)
        self.env: Dict[str, AbsVal] = dict(ctx.module_env)
        self.env.update(seeds)
        self.alias: Dict[str, str] = {}
        self.origins: Dict[str, Origin] = {}
        self.sites: List[Site] = []
        self.ret: AbsVal = BOTTOM
        self.depth = depth
        self._suppress = 0 if record else 1
        self.local_funcs: Dict[str, ast.FunctionDef] = {}
        self.local_lambdas: Dict[str, ast.Lambda] = {}
        # name -> ("le" | "ge", bound origin, names the bound reads): the
        # elementwise order an in-place np.minimum / np.maximum left
        # between the array and its bound; feeds the clamp-before-add
        # identities.  Killed when either side is written.
        self._facts: Dict[str, Tuple[str, Origin, frozenset]] = {}

    # -- plumbing -----------------------------------------------------------

    def _root(self, name: str) -> str:
        seen = set()
        while name in self.alias and name not in seen:
            seen.add(name)
            name = self.alias[name]
        return name

    def _site(self, line: int, kind: str, detail: str, val: AbsVal, status: str) -> None:
        if self._suppress:
            return
        self.sites.append(
            Site(line, self.fn.name, kind, detail, self.system, val.lo, val.hi, status)
        )

    def _resolve_name(self, name: str) -> AbsVal:
        if name in self.env:
            return self.env[name]
        if name in KNOWN_CONSTANTS:
            return const_val(KNOWN_CONSTANTS[name])
        if name in ("True", "False"):
            return BOOL
        return TOP

    def _kill_facts(self, name: str) -> None:
        """Forget every order fact whose array or bound shares *name*'s
        root array."""
        root = self._root(name)
        for subj, (_, _, reads) in list(self._facts.items()):
            if self._root(subj) == root or any(self._root(r) == root for r in reads):
                del self._facts[subj]

    def _bound_origin(self, node: ast.expr) -> Optional[Origin]:
        """Symbolic identity of an order bound or operand; an expression
        that calls anything has none (two calls may differ).  Every name
        the bound reads kills the fact when rebound, so a name may stand
        for itself here."""
        origin = _origin(node, self.origins, names=True)
        if origin is not None:
            return origin
        if any(isinstance(sub, ast.Call) for sub in ast.walk(node)):
            return None
        return ("expr", ast.dump(node))

    def _refine(self, op: ast.operator, lnode: ast.expr, rnode: ast.expr,
                out: AbsVal) -> AbsVal:
        """Tighten ``lnode op rnode`` with the order fact on ``lnode``.

        The u8 clamp-before-add identities: after ``a = min(a, K - b)``,
        ``a + b <= K``; after ``a = max(a, r)``, ``a - r >= 0``.
        """
        fact = self._facts.get(lnode.id) if isinstance(lnode, ast.Name) else None
        if fact is None or out.is_bottom:
            return out
        kind, bound, _ = fact
        other = self._bound_origin(rnode)
        if other is None:
            return out
        if (
            isinstance(op, ast.Add)
            and kind == "le"
            and bound[0] == "sub"
            and bound[1][0] == "const"  # type: ignore[index]
            and bound[2] == other
        ):
            return mk(out.lo, min(out.hi, float(bound[1][1])))  # type: ignore[index]
        if isinstance(op, ast.Sub) and kind == "ge" and bound == other:
            return mk(max(out.lo, 0.0), out.hi)
        return out

    def _write_out(self, target: ast.expr, val: AbsVal, call: ast.Call) -> None:
        """``out=target`` of a ufunc or helper: a store into that array.

        A subscript, a view of another array, or a u8/i16 array is a
        store obligation on the root array; a plain wide name is
        rebound.
        """
        if isinstance(target, ast.Subscript):
            self.store_subscript(target, val, call)
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        root = self._root(name)
        arr = self.env.get(root, TOP)
        if root == name and arr.native is None and arr.tagged is None:
            self._assign_name(name, val, call)
            return
        self._kill_facts(name)
        system = arr.native or arr.tagged
        if system in ("u8", "i16"):
            status = "proven" if val.in_range(system) else "unproven"
            self._site(call.lineno, "store", f"out={name}", val, status)
            if status == "unproven":
                val = mk(*DTYPE_RANGES[system])
        tags = {"native": arr.native, "tagged": arr.tagged}
        self.env[name] = replace(val, **tags)  # type: ignore[arg-type]
        if root != name:
            self.env[root] = replace(join(arr, val), **tags)  # type: ignore[arg-type]
        self.origins.pop(name, None)

    # -- statements ---------------------------------------------------------

    def run(self) -> None:
        self.exec_block(self.fn.body)

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.exec_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self._assign_name(stmt.target.id, self.eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.exec_augassign(stmt)
        elif isinstance(stmt, ast.Expr):
            self.exec_expr_stmt(stmt)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt)
        elif isinstance(stmt, (ast.For, ast.While)):
            self.exec_loop(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.ret = join(self.ret, self.eval(stmt.value))
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.FunctionDef):
            self.local_funcs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Raise, ast.Pass, ast.Break, ast.Continue)):
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, (ast.Assert, ast.Delete, ast.Global, ast.Nonlocal)):
            pass
        elif isinstance(stmt, (ast.Import, ast.ImportFrom, ast.ClassDef)):
            pass

    def exec_assign(self, stmt: ast.Assign) -> None:
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Lambda)
        ):
            self.local_lambdas[stmt.targets[0].id] = stmt.value
            return
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Tuple)
            and isinstance(stmt.value, ast.Tuple)
            and len(stmt.targets[0].elts) == len(stmt.value.elts)
        ):
            vals = [(v, self.eval(v)) for v in stmt.value.elts]
            for tgt, (vnode, val) in zip(stmt.targets[0].elts, vals):
                self.assign_target(tgt, val, vnode)
            return
        val = self.eval(stmt.value)
        for tgt in stmt.targets:
            self.assign_target(tgt, val, stmt.value)

    def assign_target(self, tgt: ast.expr, val: AbsVal, vnode: ast.expr) -> None:
        if isinstance(tgt, ast.Name):
            self._assign_name(tgt.id, val, vnode)
        elif isinstance(tgt, ast.Tuple):
            for el in tgt.elts:
                self.assign_target(el, TOP, vnode)
        elif isinstance(tgt, ast.Subscript):
            self.store_subscript(tgt, val, vnode)
        elif isinstance(tgt, ast.Starred):
            self.assign_target(tgt.value, TOP, vnode)
        # attribute stores (counters.x = ...) carry no proof obligations

    def _assign_name(self, name: str, val: AbsVal, vnode: ast.expr) -> None:
        self._kill_facts(name)
        self.alias.pop(name, None)
        # a plain slice of another array is a view: stores through it
        # must reach the root variable
        if isinstance(vnode, ast.Subscript):
            base = vnode.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name is not None and not isinstance(vnode.slice, ast.Constant):
                self.alias[name] = self._root(base_name)
        self.env[name] = val
        origin = _origin(vnode, self.origins)
        if origin is not None:
            self.origins[name] = origin
        else:
            self.origins.pop(name, None)

    def store_subscript(self, tgt: ast.Subscript, val: AbsVal, vnode: ast.expr) -> None:
        base = tgt.value
        base_name = dotted_name(base)
        if base_name is None or "." in base_name:
            return  # attribute-rooted stores carry no tracked array
        root = self._root(base_name)
        self._kill_facts(root)
        arr = self.env.get(root, TOP)
        system = arr.native or arr.tagged
        if system in ("u8", "i16"):
            status = "proven" if val.in_range(system) else "unproven"
            self._site(tgt.lineno, "store", _short(tgt), val, status)
            if status == "unproven":
                rlo, rhi = DTYPE_RANGES[system]
                val = mk(rlo, rhi, native=arr.native, tagged=arr.tagged)
        joined = join(arr, replace(val, native=arr.native, tagged=arr.tagged))
        self.env[root] = replace(joined, native=arr.native, tagged=arr.tagged)
        if base_name != root:
            self.env[base_name] = self.env[root]

    def exec_augassign(self, stmt: ast.AugAssign) -> None:
        if not isinstance(stmt.target, ast.Name):
            self.eval(stmt.value)
            return
        name = stmt.target.id
        cur = self.env.get(name, TOP)
        rhs = self.eval(stmt.value)
        self._kill_facts(name)
        if isinstance(stmt.op, ast.Add):
            out = _add(cur, rhs)
        elif isinstance(stmt.op, ast.Sub):
            out = _sub(cur, rhs)
        elif isinstance(stmt.op, ast.Mult):
            out = _mul(cur, rhs)
        else:
            out = TOP
        out = replace(out, native=cur.native, tagged=cur.tagged)
        if cur.native in ("u8", "i16") and isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mult)):
            # in-place arithmetic on a real narrow array
            status = "proven" if out.in_range(cur.native) else "unproven"
            self._site(stmt.lineno, "arith", _short(stmt), out, status)
            if status == "unproven":
                rlo, rhi = DTYPE_RANGES[cur.native]
                out = mk(rlo, rhi, native=cur.native)
        root = self._root(name)
        if root != name:
            base = self.env.get(root, TOP)
            self.env[root] = replace(join(base, out), native=base.native, tagged=base.tagged)
        self.env[name] = out
        self.origins.pop(name, None)

    def exec_expr_stmt(self, stmt: ast.Expr) -> None:
        self.eval(stmt.value)

    # -- branches and loops --------------------------------------------------

    def exec_if(self, stmt: ast.If) -> None:
        self.eval(stmt.test)
        refined = self._isinstance_refinement(stmt.test)
        before_env = dict(self.env)
        before_alias = dict(self.alias)
        before_origins = dict(self.origins)
        before_facts = dict(self._facts)
        if refined is not None:
            name, classes = refined
            self.env[name] = AbsVal(kind="obj", obj_types=classes)
        self.exec_block(stmt.body)
        then_env, then_alias, then_origins = self.env, self.alias, self.origins
        then_facts = self._facts
        self.env = before_env
        self.alias = before_alias
        self.origins = dict(before_origins)
        self._facts = before_facts
        if refined is not None:
            name, classes = refined
            cur = before_env.get(name, TOP)
            rest = tuple(t for t in cur.obj_types if t not in classes)
            if cur.kind == "obj" and rest:
                self.env[name] = AbsVal(kind="obj", obj_types=rest)
        self.exec_block(stmt.orelse)
        merged: Dict[str, AbsVal] = {}
        for key in set(then_env) | set(self.env):
            merged[key] = join(then_env.get(key, BOTTOM), self.env.get(key, BOTTOM))
        self.env = merged
        self.alias = {k: v for k, v in then_alias.items() if self.alias.get(k) == v}
        self.origins = {
            k: v for k, v in then_origins.items() if self.origins.get(k) == v
        }
        self._facts = {
            k: v for k, v in then_facts.items() if self._facts.get(k) == v
        }

    def _isinstance_refinement(
        self, test: ast.expr
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        if not (isinstance(test, ast.Call) and dotted_name(test.func) == "isinstance"):
            return None
        if len(test.args) != 2 or not isinstance(test.args[0], ast.Name):
            return None
        cls_node = test.args[1]
        names = []
        for el in cls_node.elts if isinstance(cls_node, ast.Tuple) else [cls_node]:
            nm = dotted_name(el)
            if nm is not None:
                names.append(nm.split(".")[-1])
        known = tuple(n for n in names if n in PROFILE_SEEDS)
        if not known:
            return None
        return test.args[0].id, known

    def exec_loop(self, stmt: ast.stmt) -> None:
        assert isinstance(stmt, (ast.For, ast.While))
        if isinstance(stmt, ast.For):
            self._bind_loop_target(stmt.target, self.eval(stmt.iter))
        else:
            self.eval(stmt.test)
        self._suppress += 1
        baseline: Dict[str, AbsVal] = {}
        try:
            for iteration in range(_MAX_LOOP_ITER):
                snapshot = dict(self.env)
                self._facts.clear()  # nothing is known on the back edge
                self.exec_block(stmt.body)
                changed = False
                for key in set(snapshot) | set(self.env):
                    old = snapshot.get(key, BOTTOM)
                    new = join(old, self.env.get(key, BOTTOM))
                    if iteration >= _WIDEN_AFTER and key in baseline:
                        ref = baseline[key]
                        if not new.is_bottom and not ref.is_bottom:
                            lo = -INF if new.lo < ref.lo else new.lo
                            hi = INF if new.hi > ref.hi else new.hi
                            new = replace(new, lo=lo, hi=hi)
                    if (new.lo, new.hi, new.native, new.tagged) != (
                        old.lo, old.hi, old.native, old.tagged,
                    ):
                        changed = True
                    self.env[key] = new
                if iteration == _WIDEN_AFTER - 1:
                    baseline = dict(self.env)
                if not changed:
                    break
        finally:
            self._suppress -= 1
        # one recording pass over the stable environment
        self._facts.clear()
        self.exec_block(stmt.body)
        self._facts.clear()
        post = dict(self.env)
        for key in post:
            self.env[key] = join(post[key], self.env.get(key, BOTTOM))
        self.exec_block(stmt.orelse)

    def _bind_loop_target(self, target: ast.expr, iterable: AbsVal) -> None:
        if isinstance(target, ast.Name):
            elem = iterable if iterable.kind == "num" else TOP
            self._assign_name(target.id, replace(elem, native=None, tagged=None)
                              if not elem.is_bottom else TOP, target)
        elif isinstance(target, ast.Tuple):
            for el in target.elts:
                self._bind_loop_target(el, TOP)

    def eval_quiet(self, node: ast.expr) -> AbsVal:
        self._suppress += 1
        try:
            return self.eval(node)
        finally:
            self._suppress -= 1

    # -- expressions ---------------------------------------------------------

    def eval(self, node: ast.expr) -> AbsVal:
        if isinstance(node, ast.Constant):
            return const_val(node.value)
        if isinstance(node, ast.Name):
            return self._resolve_name(node.id)
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node)
        if isinstance(node, ast.BinOp):
            return self.eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.eval_unaryop(node)
        if isinstance(node, ast.Compare):
            for cmp in node.comparators:
                self.eval(cmp)
            self.eval(node.left)
            return BOOL
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v)
            return BOOL
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Subscript):
            return self.eval_subscript(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = BOTTOM
            for el in node.elts:
                if isinstance(el, ast.Starred):
                    out = join(out, self.eval(el.value))
                else:
                    out = join(out, self.eval(el))
            return replace(out, native=None, tagged=None) if not out.is_bottom else TOP
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return TOP
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return TOP
        if isinstance(node, ast.Lambda):
            return TOP
        if isinstance(node, ast.Dict):
            return TOP
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part)
            return TOP
        return TOP

    def eval_attribute(self, node: ast.Attribute) -> AbsVal:
        base = self.eval(node.value)
        if base.kind == "obj" and base.obj_types:
            out = BOTTOM
            complete = True
            for cls in base.obj_types:
                seed = PROFILE_SEEDS.get(cls, {}).get(node.attr)
                if seed is None:
                    complete = False
                    break
                out = join(out, seed)
            if complete and not out.is_bottom:
                return out
            return TOP
        name = dotted_name(node)
        if name is not None and name.split(".")[-1] in KNOWN_CONSTANTS:
            return const_val(KNOWN_CONSTANTS[name.split(".")[-1]])
        return TOP

    def eval_binop(self, node: ast.BinOp) -> AbsVal:
        return self._arith(node, node.op, node.left, node.right)

    def _arith(self, node: ast.expr, op: ast.operator, lnode: ast.expr,
               rnode: ast.expr) -> AbsVal:
        """``lnode op rnode`` as a binary operator or ``np.add`` /
        ``np.subtract``; arithmetic on a native u8/i16 operand is an
        obligation site."""
        left = self.eval(lnode)
        right = self.eval(rnode)
        if isinstance(op, ast.Add):
            out = _add(left, right)
        elif isinstance(op, ast.Sub):
            out = _sub(left, right)
        elif isinstance(op, ast.Mult):
            out = _mul(left, right)
        elif isinstance(op, ast.Div):
            return TOP_FLOAT
        elif isinstance(op, (ast.LShift, ast.RShift, ast.FloorDiv, ast.Mod, ast.Pow)):
            if (
                left.lo == left.hi
                and right.lo == right.hi
                and not left.is_bottom
                and not right.is_bottom
            ):
                try:
                    a, b = int(left.lo), int(right.lo)
                    if isinstance(op, ast.LShift):
                        return const_val(a << b)
                    if isinstance(op, ast.RShift):
                        return const_val(a >> b)
                    if isinstance(op, ast.FloorDiv) and b != 0:
                        return const_val(a // b)
                    if isinstance(op, ast.Mod) and b != 0:
                        return const_val(a % b)
                    if isinstance(op, ast.Pow) and 0 <= b <= 64:
                        return const_val(a**b)
                except (OverflowError, ValueError):
                    return TOP
            return TOP
        else:  # BitOr/BitAnd/BitXor/MatMult: boolean masks and the like
            if left.kind == "bool" and right.kind == "bool":
                return BOOL
            return TOP
        out = self._refine(op, lnode, rnode, out)
        # arithmetic on a *native* narrow array wraps silently: obligation
        native = None
        if left.native in ("u8", "i16") or right.native in ("u8", "i16"):
            native = left.native if left.native in ("u8", "i16") else right.native
            compatible = (
                left.native is None
                or right.native is None
                or left.native == right.native
            )
            if compatible and native is not None:
                status = "proven" if out.in_range(native) else "unproven"
                self._site(node.lineno, "arith", _short(node), out, status)
                if status == "unproven":
                    rlo, rhi = DTYPE_RANGES[native]
                    out = mk(rlo, rhi)
                out = replace(out, native=native)
        return out

    def eval_unaryop(self, node: ast.UnaryOp) -> AbsVal:
        val = self.eval(node.operand)
        if isinstance(node.op, ast.USub) and not val.is_bottom:
            return mk(-val.hi, -val.lo)
        if isinstance(node.op, (ast.Not, ast.Invert)):
            return BOOL if val.kind == "bool" else TOP
        return val

    def eval_subscript(self, node: ast.Subscript) -> AbsVal:
        if not isinstance(node.slice, ast.Constant):
            self.eval(node.slice)
        base = self.eval(node.value)
        if base.kind in ("num", "float"):
            return base
        return TOP

    # -- calls ---------------------------------------------------------------

    def eval_call(self, node: ast.Call) -> AbsVal:
        """A call's value; its ``out=`` target receives the value as a
        store, and an ``np.minimum`` / ``np.maximum`` into a name leaves
        the order fact ``out <= bound`` / ``out >= bound``."""
        val = self._eval_call(node)
        target = next((kw.value for kw in node.keywords if kw.arg == "out"), None)
        if target is not None:
            self._write_out(target, val, node)
            tail = (dotted_name(node.func) or "").split(".")[-1]
            bound = node.args[1] if len(node.args) >= 2 else None
            origin = None if bound is None else self._bound_origin(bound)
            if (
                tail in ("minimum", "maximum")
                and isinstance(target, ast.Name)
                and origin is not None
            ):
                reads = frozenset(
                    n.id for n in ast.walk(bound) if isinstance(n, ast.Name)
                )
                self._facts[target.id] = (
                    "le" if tail == "minimum" else "ge", origin, reads,
                )
        return val

    def _eval_call(self, node: ast.Call) -> AbsVal:
        name = dotted_name(node.func) or ""
        tail = name.split(".")[-1]
        args = node.args
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}

        def arg_val(i: int, default: AbsVal = TOP) -> AbsVal:
            return self.eval(args[i]) if len(args) > i else default

        def kw_or_arg(key: str, i: int, default: AbsVal = TOP) -> AbsVal:
            if key in kwargs:
                return self.eval(kwargs[key])
            return arg_val(i, default)

        # 0. .astype() on any receiver (Name, Call, Subscript, ...)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            operand = self.eval(node.func.value)
            target = None
            if node.args:
                dn0 = dotted_name(node.args[0])
                if dn0 is not None:
                    target = _CAST_NAMES.get(dn0.split(".")[-1])
            return self._cast(node, operand, target)

        # 1. audited saturation helpers -> clamped summaries + certificate
        if tail in _SAT_HELPERS:
            return self._helper_summary(node, tail, arg_val)

        # 2. cross-module kernel helpers with verified behaviour
        if tail in ("warp_max_shuffle", "warp_max_shared"):
            return replace(arg_val(0), native=None, tagged=None)
        if tail == "conflict_free_lane_stride":
            return mk(1, INF)
        if tail == "packed_stream_bytes":
            return mk(0, INF)

        # 3. numpy constructors and ufuncs
        np_val = self._numpy_call(node, name, tail, arg_val, kw_or_arg, kwargs)
        if np_val is not None:
            return np_val

        # 4. known classmethod constructors
        parts = name.split(".")
        if len(parts) == 2 and parts[0] in PROFILE_SEEDS and tail == "from_profile":
            for a in args:
                self.eval(a)
            return AbsVal(kind="obj", obj_types=(parts[0],))

        # 5. array/scalar methods
        if isinstance(node.func, ast.Attribute):
            recv_node = node.func.value
            method = node.func.attr
            if method in ("copy", "ravel", "reshape", "flatten", "squeeze"):
                return self.eval(recv_node)
            if method in ("max", "min", "item"):
                recv = self.eval(recv_node)
                return recv if recv.kind in ("num", "float") else TOP
            if method in ("sum", "prod", "mean", "std", "dot"):
                self.eval(recv_node)
                return TOP
            if method in ("any", "all"):
                self.eval(recv_node)
                return BOOL
            recv = self.eval(recv_node)
            if recv.kind == "obj" and recv.obj_types:
                out = BOTTOM
                for cls in recv.obj_types:
                    seed = PROFILE_SEEDS.get(cls, {}).get(method)
                    if seed is not None:
                        out = join(out, seed)
                for a in args:
                    self.eval(a)
                if not out.is_bottom:
                    return out
                return TOP

        # 6. intra-module inlining
        inlined = self._inline(node, tail)
        if inlined is not None:
            return inlined

        # 7. builtins
        if tail in ("int", "float", "round", "abs"):
            val = arg_val(0)
            if tail == "abs" and not val.is_bottom:
                return mk(
                    0.0 if val.lo <= 0 <= val.hi else min(abs(val.lo), abs(val.hi)),
                    max(abs(val.lo), abs(val.hi)),
                )
            if val.kind == "num":
                return replace(val, native=None, tagged=None)
            return TOP if tail in ("int", "round") else TOP_FLOAT
        if tail in ("min", "max") and len(args) >= 2:
            out = arg_val(0)
            for i in range(1, len(args)):
                nxt = arg_val(i)
                out = _min_iv(out, nxt) if tail == "min" else _max_iv(out, nxt)
            return replace(out, native=None, tagged=None) if not out.is_bottom else TOP
        if tail == "len":
            if args:
                self.eval(args[0])
            return mk(0, INF)
        if tail in ("range", "enumerate", "sorted", "list", "tuple", "zip", "reversed"):
            for a in args:
                self.eval(a)
            return TOP
        if tail in ("isinstance", "bool", "hasattr"):
            for a in args:
                self.eval(a)
            return BOOL

        # 8. anything else: evaluate arguments for effects, return top
        for a in args:
            self.eval(a)
        for kw in node.keywords:
            self.eval(kw.value)
        return TOP

    def _helper_summary(self, node: ast.Call, tail: str, arg_val) -> AbsVal:
        a = arg_val(0)
        if tail in ("sat_add_u8", "sat_sub_u8"):
            out = mk(0, 255)
        elif tail == "sat_add_i16":
            out = mk(-32768, 32767)
        else:  # clip_i16
            out = _clip_iv(a, -32768.0, 32767.0)
            if out.is_bottom:
                out = mk(-32768, 32767)
        self._site(node.lineno, "helper", _short(node), out, "by_helper")
        return out

    def _numpy_call(
        self, node: ast.Call, name: str, tail: str, arg_val, kw_or_arg, kwargs
    ) -> Optional[AbsVal]:
        is_np = name.startswith(("np.", "numpy.")) or tail in _CAST_NAMES
        dtype_node = kwargs.get("dtype")
        dtype = None
        if dtype_node is not None:
            dn = dotted_name(dtype_node)
            if dn is not None:
                dtype = _CAST_NAMES.get(dn.split(".")[-1])
            elif isinstance(dtype_node, ast.Constant) and dtype_node.value == "bool":
                dtype = None

        if tail in ("zeros", "ones", "full", "empty", "zeros_like", "full_like",
                    "empty_like", "ones_like") and is_np:
            if tail.startswith("full"):
                fill = kw_or_arg("fill_value", 1)
            elif tail.startswith("ones"):
                fill = mk(1, 1)
            elif tail.startswith("zeros"):
                fill = mk(0, 0)
            else:
                fill = BOTTOM
            for a in node.args[:1]:
                self.eval(a)
            dn2 = dotted_name(dtype_node) if dtype_node is not None else None
            if dn2 is not None and dn2.split(".")[-1] in ("bool_", "bool8"):
                return BOOL
            if dtype_node is not None and dotted_name(dtype_node) == "bool":
                return BOOL
            native = dtype if dtype in ("u8", "i16") else None
            tagged = None
            if (
                native is None
                and dtype in ("i32", "i64")
                and self.system is not None
                and not fill.is_bottom  # uninitialised scratch holds no scores
                and fill.in_range(self.system)
            ):
                tagged = self.system
            if fill.kind == "float" and dtype is None:
                return replace(fill, native=None, tagged=None)
            return replace(fill, native=native, tagged=tagged, kind="num")

        if tail in _CAST_NAMES and is_np:
            return self._cast(node, arg_val(0), _CAST_NAMES[tail])

        if tail in ("asarray", "array", "ascontiguousarray", "atleast_1d") and is_np:
            val = arg_val(0)
            if dtype in ("u8", "i16"):
                return self._cast(node, val, dtype)
            if dtype in ("i32", "i64"):
                return self._cast(node, val, dtype)
            return val

        if not is_np and not name.startswith(("np.", "numpy.")):
            return None

        if tail == "clip":
            val = arg_val(0)
            lo_v = kw_or_arg("a_min", 1)
            hi_v = kw_or_arg("a_max", 2)
            if lo_v.lo == lo_v.hi and hi_v.lo == hi_v.hi and not lo_v.is_bottom:
                out = _clip_iv(val, lo_v.lo, hi_v.hi)
                narrow = (
                    "u8"
                    if (lo_v.lo, hi_v.hi) == (0.0, 255.0)
                    else "i16"
                    if (lo_v.lo, hi_v.hi) == (-32768.0, 32767.0)
                    else None
                )
                if narrow is not None:
                    self._site(node.lineno, "clip", _short(node), out, "proven")
            else:
                out = join(val, join(lo_v, hi_v))
            return out

        if tail in ("maximum", "minimum"):
            a, b = arg_val(0), arg_val(1)
            return _max_iv(a, b) if tail == "maximum" else _min_iv(a, b)

        if tail in ("add", "subtract") and len(node.args) >= 2:
            op = ast.Add() if tail == "add" else ast.Sub()
            return self._arith(node, op, node.args[0], node.args[1])

        if tail == "take":
            for a in node.args[1:]:
                self.eval(a)
            return replace(arg_val(0), native=None, tagged=None)

        if tail == "accumulate":
            # np.maximum.accumulate / np.minimum.accumulate: same hull
            return replace(arg_val(0), native=None, tagged=None)

        if tail == "where":
            if node.args:
                self.eval(node.args[0])
            out = join(arg_val(1), arg_val(2))
            return replace(out, native=None, tagged=None) if not out.is_bottom else TOP

        if tail in ("concatenate", "hstack", "vstack", "stack"):
            return arg_val(0)

        if tail in ("broadcast_to", "rint", "floor", "ceil", "transpose", "squeeze"):
            out = arg_val(0)
            if tail == "rint":
                return out if out.kind == "num" else TOP
            return out

        if tail == "cumsum":
            val = arg_val(0)
            if val.is_bottom:
                return val
            lo = val.lo if val.lo >= 0 else -INF
            hi = val.hi if val.hi <= 0 else INF
            return mk(min(lo, val.lo), max(hi, val.hi))

        if tail in ("bincount", "count_nonzero", "searchsorted", "argmin", "argmax",
                    "flatnonzero", "argsort", "size"):
            for a in node.args:
                self.eval(a)
            return mk(0, INF)

        if tail == "arange":
            for a in node.args:
                self.eval(a)
            return mk(0, INF) if len(node.args) <= 1 else TOP

        if tail in ("isfinite", "isnan", "isinf", "any", "all", "logical_and",
                    "logical_or", "logical_not"):
            for a in node.args:
                self.eval(a)
            return BOOL

        if tail in ("meshgrid", "shape", "split"):
            for a in node.args:
                self.eval(a)
            return TOP

        # unknown numpy call: evaluate args, no information
        for a in node.args:
            self.eval(a)
        return TOP

    def _cast(self, node: ast.AST, operand: AbsVal, target: Optional[str]) -> AbsVal:
        if target is None:
            # float / bool / intp casts carry no wrap obligation
            return replace(operand, native=None, tagged=None) if operand.kind == "num" else TOP
        if target in ("u8", "i16"):
            status = "proven" if (operand.kind == "num" and operand.in_range(target)) \
                else "unproven"
            out = operand if status == "proven" else AbsVal(*DTYPE_RANGES[target])
            self._site(node.lineno, "cast", _short(node), operand, status)  # type: ignore[attr-defined]
            return replace(out, native=target, tagged=None)
        if target == "i32":
            ok = operand.kind != "num" or operand.in_range("i32")
            if operand.kind == "num":
                status = "proven" if ok else "unproven"
                self._site(node.lineno, "cast", _short(node), operand, status)  # type: ignore[attr-defined]
            out = operand if ok and operand.kind == "num" else AbsVal(*DTYPE_RANGES["i32"])
            return replace(out, kind="num", native=None, tagged=operand.tagged)
        # i64: effectively unbounded for our value ranges.  The widened
        # copy is a fresh scratch array; obligations re-arise when the
        # result narrows back into a tagged carrier.
        if operand.kind == "num":
            return replace(operand, native=None, tagged=None)
        return TOP

    # -- inlining ------------------------------------------------------------

    def _inline(self, node: ast.Call, tail: str) -> Optional[AbsVal]:
        if not isinstance(node.func, ast.Name):
            return None
        fname = node.func.id
        lam = self.local_lambdas.get(fname)
        if lam is not None:
            return self._inline_lambda(lam, node)
        target = self.local_funcs.get(fname) or self.ctx.functions.get(fname)
        if target is None or target is self.fn or self.depth >= _MAX_INLINE_DEPTH:
            if target is not None:
                for a in node.args:
                    self.eval(a)
                return TOP
            return None
        bound = self._bind_call(target, node)
        if bound is None:
            return TOP
        sub = _Interp(self.ctx, target, bound, depth=self.depth + 1, record=False)
        if fname in self.local_funcs:
            # nested defs close over our locals
            merged = dict(self.env)
            merged.update(bound)
            sub.env = dict(self.ctx.module_env)
            sub.env.update(merged)
        sub.local_funcs = dict(self.local_funcs)
        sub.local_lambdas = dict(self.local_lambdas)
        try:
            sub.run()
        except RecursionError:  # pragma: no cover - defensive
            return TOP
        # re-join mutated parameters into caller variables (in-place
        # effects like _lazy_f(DMX, ...) writing through its first arg)
        params = [a.arg for a in target.args.args]
        for pname, anode in zip(params, node.args):
            if isinstance(anode, ast.Name) and pname in sub.env:
                root = self._root(anode.id)
                base = self.env.get(root, TOP)
                self.env[root] = replace(
                    join(base, sub.env[pname]), native=base.native, tagged=base.tagged
                )
                if anode.id != root:
                    self.env[anode.id] = self.env[root]
        return sub.ret if not sub.ret.is_bottom else TOP

    def _inline_lambda(self, lam: ast.Lambda, node: ast.Call) -> AbsVal:
        saved_env = dict(self.env)
        saved_alias = dict(self.alias)
        try:
            params = [a.arg for a in lam.args.args]
            for pname, anode in zip(params, node.args):
                self.env[pname] = self.eval(anode)
                self.alias.pop(pname, None)
            self._suppress += 1
            try:
                return self.eval(lam.body)
            finally:
                self._suppress -= 1
        finally:
            self.env = saved_env
            self.alias = saved_alias

    def _bind_call(
        self, target: ast.FunctionDef, node: ast.Call
    ) -> Optional[Dict[str, AbsVal]]:
        bound: Dict[str, AbsVal] = {}
        params = list(target.args.args)
        defaults = list(target.args.defaults)
        for i, p in enumerate(params):
            n_no_default = len(params) - len(defaults)
            if i < len(node.args):
                if isinstance(node.args[i], ast.Starred):
                    return None
                bound[p.arg] = self.eval(node.args[i])
            elif i >= n_no_default:
                bound[p.arg] = self.eval_quiet(defaults[i - n_no_default])
            else:
                bound[p.arg] = TOP
        for kw in node.keywords:
            if kw.arg is not None:
                bound[kw.arg] = self.eval(kw.value)
        for p in target.args.kwonlyargs:
            bound.setdefault(p.arg, TOP)
        return bound


# ---------------------------------------------------------------------------
# module analysis entry points
# ---------------------------------------------------------------------------


def _module_env(tree: ast.Module, ctx: _ModuleCtx) -> Dict[str, AbsVal]:
    """Abstract values of simple module-level constant assignments."""
    dummy = ast.FunctionDef(
        name="<module>", args=ast.arguments(
            posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[], defaults=[]
        ), body=[], decorator_list=[], returns=None, type_comment=None,
    )
    interp = _Interp(ctx, dummy, {}, record=False)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and all(
            isinstance(t, ast.Name) for t in stmt.targets
        ):
            try:
                val = interp.eval(stmt.value)
            except Exception:
                val = TOP
            for t in stmt.targets:
                assert isinstance(t, ast.Name)
                interp.env[t.id] = val
    return {
        k: v
        for k, v in interp.env.items()
        if v is not TOP and not (v.lo == -INF and v.hi == INF)
    }


def _iter_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub


def analyze_module(tree: ast.Module, path: str) -> ModuleProof:
    """Interval-analyze every top-level function and method of *path*."""
    norm = path.replace("\\", "/")
    system = _MODULE_SYSTEMS.get(norm)
    ctx = _ModuleCtx(
        path=norm,
        system=system,
        functions={fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)},
        module_env={},
    )
    ctx.module_env = _module_env(tree, ctx)
    proof = ModuleProof(path=norm)
    for fn in _iter_functions(tree):
        seeds = {}
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            if arg.arg in ("self", "cls"):
                seeds[arg.arg] = TOP
            else:
                seeds[arg.arg] = _param_seed(arg)
        interp = _Interp(ctx, fn, seeds)
        interp.run()
        fproof = FunctionProof(name=fn.name)
        seen = set()
        for site in interp.sites:
            key = (site.line, site.kind, site.detail, site.status)
            if key not in seen:
                seen.add(key)
                fproof.sites.append(site)
        proof.functions.append(fproof)
    return proof


def analyze_source(path: str, source: str) -> ModuleProof:
    return analyze_module(ast.parse(source, filename=path), path)


def certified_clip_lines(tree: ast.Module, path: str) -> frozenset:
    """Lines of encode-step ``np.clip`` calls the prover certifies.

    Only consulted for :data:`ENCODE_MODULES`; everywhere else the
    syntactic R003 clip check stands unchanged.
    """
    if path.replace("\\", "/") not in ENCODE_MODULES:
        return frozenset()
    try:
        return analyze_module(tree, path).certified_clip_lines
    except Exception:  # pragma: no cover - fail safe: keep the finding
        return frozenset()


# ---------------------------------------------------------------------------
# the --prove rule and certificate collection
# ---------------------------------------------------------------------------


def _fmt_bound(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return str(int(x))


class IntervalProverRule(Rule):
    """R003 (prove mode): interval escape from a u8/i16 obligation site.

    Not part of ``ALL_RULES`` — the CLI appends it under ``--prove`` so
    the syntactic R003 check and this semantic one share an id, path
    scope and baseline namespace without double-reporting by default.
    """

    id = "R003"
    title = "interval prover: narrow-dtype range escape"
    rationale = (
        "Abstract interpretation over quantizer-seeded intervals proves "
        "each u8/i16 site in the filter kernels cannot wrap; an unproven "
        "site is a potential silent score corruption."
    )

    def applies_to(self, path: str) -> bool:
        return path.replace("\\", "/") in PROVE_TARGETS

    def check(self, tree, lines, path):
        try:
            proof = analyze_module(tree, path)
        except Exception as exc:  # pragma: no cover - surface, don't hide
            return [
                Finding(
                    self.id, path, 1, "prove:internal-error",
                    f"interval prover crashed on this module: {exc!r}",
                )
            ]
        findings: List[Finding] = []
        for site in proof.unproven:
            rng = DTYPE_RANGES.get(site.system or "", (-INF, INF))
            findings.append(
                Finding(
                    self.id, path, site.line,
                    f"prove:{site.function}:{site.kind}:{site.detail}",
                    f"unproven {site.kind} '{site.detail}' in "
                    f"{site.function}(): interval "
                    f"[{_fmt_bound(site.lo)}, {_fmt_bound(site.hi)}] escapes "
                    f"the {site.system or 'narrow'} range "
                    f"[{_fmt_bound(rng[0])}, {_fmt_bound(rng[1])}]; route "
                    "the value through a sat_*/clip_i16 guardrail",
                )
            )
        return findings


def certificate_doc(root: str, paths: Sequence[str] = PROVE_TARGETS) -> Dict[str, object]:
    """Build the machine-readable proof-certificate document."""
    import os

    targets: List[Dict[str, object]] = []
    errors: List[str] = []
    for rel in paths:
        full = os.path.join(root, rel)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                source = fh.read()
            proof = analyze_source(rel, source)
        except (OSError, SyntaxError) as exc:
            errors.append(f"{rel}: {exc}")
            continue
        targets.append(proof.to_doc())
    n_sites = sum(int(t["sites"]) for t in targets)  # type: ignore[call-overload]
    n_unproven = sum(int(t["unproven"]) for t in targets)  # type: ignore[call-overload]
    return {
        "tool": "repro-prove",
        "proven": n_unproven == 0 and not errors,
        "sites": n_sites,
        "unproven": n_unproven,
        "errors": errors,
        "targets": targets,
    }
