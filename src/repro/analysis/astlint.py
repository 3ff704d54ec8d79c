"""Repo-invariant linter: ``ast``-level rules the reproduction lives by.

Eleven rules, numbered flake8-style (REP007 and REP012 are retired);
each encodes an invariant the codebase promises elsewhere (error
hierarchy in ``core/errors.py``, determinism in the test harness,
integer-exactness of the kernel modules, honest error handling,
unit-annotated cost models, GEMM execution routed through the backend
dispatch):

* **REP001** -- every exception class derives from ``ReproError``;
* **REP002** -- no unseeded global RNG (``np.random.rand`` and friends,
  bare ``random.*``) outside test code;
* **REP003** -- integer kernel modules (``core/binseg.py``,
  ``core/packing.py``, ``core/microengine.py``, ``core/gemm.py``) may
  only produce floats inside functions explicitly annotated
  ``-> float``;
* **REP004** -- no bare ``except:`` and no ``except Exception: pass``;
* **REP005** -- cycle/energy-model functions in ``sim/perf.py`` and
  ``sim/energy.py`` document their units in the docstring;
* **REP006** -- no direct ``MicroEngine.push_pair`` driving outside
  ``core/``: everything else must go through ``MixGemm``/``mix_gemm``
  so the backend dispatch (``core/backend.py``) can route the call to
  the vectorized fast path or the event engine as fidelity demands;
* **REP008** -- no bare ``threading.Lock()``/``threading.RLock()``
  construction outside the lock factory (``core/locks.py``), the
  sanitizer (``analysis/concurrency/sanitizer.py``) and the
  grandfathered lock owners (``core/packcache.py``,
  ``runtime/serving.py``): production locks come from
  ``repro.core.locks.make_lock``/``make_rlock`` so the concurrency
  sanitizer (``repro serve --sanitize``) can wrap and trace them;
* **REP009** -- every ``queue.Queue()`` under ``runtime/`` must pass an
  explicit positive ``maxsize``, and ``queue.SimpleQueue()`` (always
  unbounded) is banned there outright: the serving stack promises
  bounded memory under overload (``docs/robustness.md``), and an
  unbounded queue silently voids admission control;
* **REP010** -- no hard-coded accumulator widths outside
  ``core/config.py``: integer literals passed as ``accmem_bits=``,
  assigned to ``accmem_bits``-named variables/defaults, or compared
  against ``accmem_bits``/``*_bits`` identifiers (the container width
  64 in particular) bypass ``DEFAULT_ACCMEM_BITS`` /
  ``ACCMEM_CONTAINER_BITS`` -- the range analyzer and the fast path
  must agree on wrap semantics through those single definitions;
* **REP011** -- every ``SharedMemory(...)`` construction under
  ``runtime/`` must be paired with ``close()``/``unlink()`` cleanup:
  either opened as a ``with`` context manager or inside a ``try``
  whose ``finally`` calls ``.close()``/``.unlink()``.  POSIX shared
  memory outlives the process -- a leaked segment stays in
  ``/dev/shm`` until reboot, which is exactly the failure mode the
  zero-copy plan distribution (``runtime/plan.py``) must never have.
* **REP013** -- no hard-coded cycle/latency cost constants outside the
  ISA cost table homes (``core/isa.py``, ``core/config.py``) and the
  cost model that consumes them (``analysis/cost/``): a nonzero
  integer literal assigned to (or passed as, or defaulted into) a
  name ending in ``cost``/``cycle(s)``/``latency``/``overhead``
  forks the single source of truth the engine, the fast path and the
  cost report's phase split all read -- a constant edited anywhere
  else would make the simulator and the phase split disagree about
  what an instruction costs.

Suppress a finding with a trailing ``# repro: noqa`` (everything on the
line) or ``# repro: noqa REP003`` / ``REP003,REP005`` (those rules).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.diagnostics import (
    AnalysisError,
    Diagnostic,
    DiagnosticReport,
    ERROR,
)

LINT_RULES: dict[str, str] = {
    "REP001": "exception classes must derive from ReproError",
    "REP002": "unseeded global RNG use outside tests",
    "REP003": "float arithmetic in an integer kernel module",
    "REP004": "bare except or silently swallowed Exception",
    "REP005": "cost-model function docstring does not state its units",
    "REP006": "direct MicroEngine.push_pair call outside core/",
    "REP008": "bare threading.Lock()/RLock() outside the lock factory",
    "REP009": "unbounded queue construction in the serving runtime",
    "REP010": "hard-coded accumulator width outside core/config.py",
    "REP011": "SharedMemory creation without close()/unlink() cleanup",
    "REP013": "hard-coded cycle/latency constant outside the ISA cost "
              "table",
    "REP000": "lint target is not parseable Python",
}

#: The one module allowed to spell accumulator widths as integer
#: literals (REP010): it *defines* DEFAULT_ACCMEM_BITS and
#: ACCMEM_CONTAINER_BITS and validates the legal range.
ACCMEM_CONFIG_SUFFIXES = ("core/config.py",)

#: Module path suffixes (POSIX form) allowed to construct raw locks
#: (REP008): the factory itself, the sanitizer whose wrappers *are*
#: the instrumentation, and the two grandfathered lock owners named in
#: the rule.
LOCK_FACTORY_SUFFIXES = (
    "core/locks.py",
    "analysis/concurrency/sanitizer.py",
    "core/packcache.py",
    "runtime/serving.py",
)

#: Module path suffixes allowed to spell cycle/latency costs as
#: integer literals (REP013): the ISA cost table and its config-level
#: companion.  ``analysis/cost/`` (checked by substring, it is a
#: package) is also exempt -- it *derives* every term from the table.
CYCLE_COST_HOME_SUFFIXES = (
    "core/isa.py",
    "core/config.py",
)

#: Trailing ``_``-separated name tokens that mark a binding as a cycle
#: or latency cost (REP013).
_CYCLE_COST_TOKENS = frozenset({
    "cost", "cycle", "cycles", "latency", "overhead",
})

#: Module path suffixes (POSIX form) where REP003 applies.
KERNEL_MODULE_SUFFIXES = (
    "core/binseg.py",
    "core/packing.py",
    "core/microengine.py",
    "core/gemm.py",
)

#: Module path suffixes where REP005 applies.
COST_MODEL_SUFFIXES = (
    "sim/perf.py",
    "sim/energy.py",
)

#: Builtin exception names a class may subclass *alongside* a ReproError
#: lineage, but never alone (REP001).
_BUILTIN_EXCEPTIONS = frozenset({
    "BaseException", "Exception", "ArithmeticError", "AssertionError",
    "AttributeError", "BufferError", "EOFError", "FloatingPointError",
    "ImportError", "IndexError", "KeyError", "LookupError",
    "MemoryError", "NameError", "NotImplementedError", "OSError",
    "IOError", "OverflowError", "RecursionError", "ReferenceError",
    "RuntimeError", "StopIteration", "SyntaxError", "SystemError",
    "TypeError", "ValueError", "ZeroDivisionError",
})

#: ``np.random.<fn>`` calls that hit numpy's *global* RNG state.  The
#: seedable constructors (``default_rng``/``RandomState``/``Generator``/
#: ``SeedSequence``) are excluded and instead checked for a seed arg.
_NP_SEEDABLE = frozenset({
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "BitGenerator", "PCG64", "Philox", "MT19937", "SFC64",
})

#: Functions of the stdlib ``random`` module's hidden global instance.
_STDLIB_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
    "seed",
})

#: Name fragments that mark a function as part of the cost model
#: (REP005 trigger), matched against ``_``-split name tokens.
_COST_NAME_TOKENS = frozenset({
    "energy", "cycle", "cycles", "watt", "watts", "power", "pj",
    "joule", "joules", "second", "seconds", "gops", "tops", "hz",
    "latency",
})

#: Substrings that count as a unit statement inside a docstring.
_UNIT_PATTERN = re.compile(
    r"pJ|joule|watt|\bW\b|GOPS|TOPS|cycle|second|\b[GMk]?Hz\b|\bmW\b|"
    r"\bms\b|\bns\b|\bus\b",
)

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\b[:\s]*(?P<rules>(?:REP\d{3}[,\s]*)*)",
)


def _noqa_rules(line: str) -> frozenset[str] | None:
    """Rules suppressed on ``line``; empty set = all; None = no noqa."""
    match = _NOQA_PATTERN.search(line)
    if match is None:
        return None
    return frozenset(re.findall(r"REP\d{3}", match.group("rules")))


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an Attribute/Name chain, '' for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def is_test_path(path: str) -> bool:
    """True for files REP002 exempts (test and conftest modules)."""
    p = Path(path)
    if any(part in ("tests", "test") for part in p.parts):
        return True
    return p.name.startswith("test_") or p.name == "conftest.py"


class RepoInvariantVisitor(ast.NodeVisitor):
    """Single-pass visitor emitting the REP001-REP013 diagnostics."""

    def __init__(self, path: str = "") -> None:
        self.path = path
        self.diagnostics: list[Diagnostic] = []
        posix = Path(path).as_posix() if path else ""
        self._kernel = posix.endswith(KERNEL_MODULE_SUFFIXES)
        self._cost_model = posix.endswith(COST_MODEL_SUFFIXES)
        self._test_file = is_test_path(path) if path else False
        self._core_file = "core" in Path(path).parts if path else False
        self._lock_factory = posix.endswith(LOCK_FACTORY_SUFFIXES)
        self._accmem_home = posix.endswith(ACCMEM_CONFIG_SUFFIXES)
        self._cycle_cost_home = (posix.endswith(CYCLE_COST_HOME_SUFFIXES)
                                 or "analysis/cost/" in posix)
        self._runtime_file = ("runtime" in Path(path).parts
                              if path else False)
        #: Local names bound to threading.Lock/RLock by imports.
        self._lock_aliases: set[str] = set()
        #: Local names bound to queue.Queue/SimpleQueue by imports
        #: (REP009), mapped back to the canonical class name.
        self._queue_aliases: dict[str, str] = {}
        #: Stack of ``returns -> float`` flags for enclosing functions.
        self._float_ok: list[bool] = []
        #: ``id()`` of SharedMemory Call nodes proven cleanup-paired
        #: (REP011): inside a ``with`` item or a ``try`` whose
        #: ``finally`` closes/unlinks.  Parents are visited before
        #: children, so the set is populated before ``visit_Call``
        #: reaches the construction.
        self._shm_safe: set[int] = set()

    # -- plumbing ----------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str,
              hint: str = "") -> None:
        self.diagnostics.append(Diagnostic(
            rule=rule, severity=ERROR, message=message, hint=hint,
            path=self.path, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
        ))

    # -- REP001 ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base_names = [_dotted(b) for b in node.bases]
        simple = [b.rsplit(".", 1)[-1] for b in base_names if b]
        is_exception = any(
            b in _BUILTIN_EXCEPTIONS or b.endswith("Error")
            or b.endswith("Exception") or b.endswith("Warning")
            for b in simple
        )
        blessed = any(
            b == "ReproError"
            or (b.endswith(("Error", "Exception"))
                and b not in _BUILTIN_EXCEPTIONS)
            for b in simple
        )
        if (is_exception and not blessed
                and node.name != "ReproError"
                and not node.name.endswith("Warning")):
            self._emit(
                "REP001", node,
                f"exception class {node.name} does not derive from "
                f"ReproError",
                hint="add ReproError as a base (keep the stdlib base "
                     "for backwards-compatible except clauses)",
            )
        self.generic_visit(node)

    # -- REP008 ------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "threading":
            for alias in node.names:
                if alias.name in ("Lock", "RLock"):
                    self._lock_aliases.add(alias.asname or alias.name)
        if node.module == "queue":
            for alias in node.names:
                if alias.name in ("Queue", "SimpleQueue", "LifoQueue",
                                  "PriorityQueue"):
                    self._queue_aliases[alias.asname or alias.name] = \
                        alias.name
        self.generic_visit(node)

    def _check_lock_construction(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        direct = name in ("threading.Lock", "threading.RLock")
        aliased = (isinstance(node.func, ast.Name)
                   and node.func.id in self._lock_aliases)
        if direct or aliased:
            self._emit(
                "REP008", node,
                f"bare {name or node.func.id}() construction outside "
                f"the lock factory",
                hint="use repro.core.locks.make_lock/make_rlock so "
                     "'repro serve --sanitize' can wrap the lock",
            )

    # -- REP009 ------------------------------------------------------

    def _check_queue_construction(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        cls = ""
        if name.startswith("queue.") and name.count(".") == 1:
            cls = name.split(".", 1)[1]
        elif isinstance(node.func, ast.Name):
            cls = self._queue_aliases.get(node.func.id, "")
        if cls == "SimpleQueue":
            self._emit(
                "REP009", node,
                "SimpleQueue cannot be bounded; the serving runtime "
                "requires bounded queues",
                hint="use queue.Queue(maxsize=...) so overload hits "
                     "admission control instead of growing memory",
            )
            return
        if cls not in ("Queue", "LifoQueue", "PriorityQueue"):
            return
        maxsize: ast.AST | None = node.args[0] if node.args else None
        if maxsize is None:
            for kw in node.keywords:
                if kw.arg == "maxsize":
                    maxsize = kw.value
        if maxsize is None:
            self._emit(
                "REP009", node,
                f"{cls}() without an explicit maxsize is unbounded",
                hint="pass maxsize=<bound> (queue growth under overload "
                     "must hit admission control, not memory)",
            )
            return
        if isinstance(maxsize, ast.Constant) \
                and isinstance(maxsize.value, int) \
                and maxsize.value <= 0:
            self._emit(
                "REP009", node,
                f"{cls}(maxsize={maxsize.value}) disables the bound "
                f"(stdlib treats <= 0 as infinite)",
                hint="pass a positive maxsize",
            )

    # -- REP011 ------------------------------------------------------

    @staticmethod
    def _shm_calls(node: ast.AST):
        """Yield ``SharedMemory(...)`` Call nodes anywhere under ``node``."""
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call)
                    and _dotted(sub.func).rsplit(".", 1)[-1]
                    == "SharedMemory"):
                yield sub

    def visit_With(self, node: ast.With) -> None:
        # A SharedMemory opened as a context-manager item is
        # cleanup-paired by construction (``__exit__`` closes it).
        for item in node.items:
            for call in self._shm_calls(item.context_expr):
                self._shm_safe.add(id(call))
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        for item in node.items:
            for call in self._shm_calls(item.context_expr):
                self._shm_safe.add(id(call))
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        # A try whose finally calls .close()/.unlink() blesses every
        # SharedMemory construction in its protected regions.
        cleanup = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in ("close", "unlink")
            for stmt in node.finalbody for sub in ast.walk(stmt))
        if cleanup:
            for region in (node.body, node.handlers, node.orelse):
                for stmt in region:
                    for call in self._shm_calls(stmt):
                        self._shm_safe.add(id(call))
        self.generic_visit(node)

    def _check_shm_construction(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name.rsplit(".", 1)[-1] != "SharedMemory":
            return
        if id(node) in self._shm_safe:
            return
        self._emit(
            "REP011", node,
            "SharedMemory segment opened without paired "
            "close()/unlink() cleanup",
            hint="open the segment as a context manager or inside a "
                 "try whose finally calls close() (and unlink() on "
                 "the owning side): a leaked segment survives the "
                 "process in /dev/shm",
        )

    # -- REP010 ------------------------------------------------------

    @staticmethod
    def _is_int_literal(node: ast.AST) -> bool:
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and not isinstance(node.value, bool))

    @property
    def _rep010_active(self) -> bool:
        return not self._test_file and not self._accmem_home

    def _emit_accmem(self, node: ast.AST, message: str) -> None:
        self._emit(
            "REP010", node, message,
            hint="import DEFAULT_ACCMEM_BITS / ACCMEM_CONTAINER_BITS "
                 "from repro.core.config: the analyzer, fast path and "
                 "plan compiler must agree on wrap widths through one "
                 "definition",
        )

    def _check_accmem_keyword(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "accmem_bits" and self._is_int_literal(kw.value):
                self._emit_accmem(
                    kw.value,
                    f"accmem_bits={kw.value.value} hard-codes the "
                    f"accumulator width at a call site",
                )

    def _check_accmem_assign(self, target: ast.AST,
                             value: ast.AST | None) -> None:
        name = _dotted(target).rsplit(".", 1)[-1]
        if name.lower().endswith("accmem_bits") and value is not None \
                and self._is_int_literal(value):
            self._emit_accmem(
                value,
                f"{name} = {value.value} hard-codes the accumulator "
                f"width",
            )

    def _check_accmem_compare(self, node: ast.Compare) -> None:
        sides = [node.left, *node.comparators]
        names = [_dotted(s).rsplit(".", 1)[-1] for s in sides]
        for side, name in zip(sides, names):
            if not self._is_int_literal(side):
                continue
            for other in names:
                if not other:
                    continue
                if other.lower().endswith("accmem_bits"):
                    self._emit_accmem(
                        node,
                        f"comparing {other} against the literal "
                        f"{side.value}",
                    )
                    return
                if side.value == 64 and (
                        other == "bits" or other.endswith("_bits")):
                    self._emit_accmem(
                        node,
                        f"comparing {other} against the literal 64 "
                        f"assumes the int64 container width",
                    )
                    return

    # -- REP013 ------------------------------------------------------

    @property
    def _rep013_active(self) -> bool:
        return not self._test_file and not self._cycle_cost_home

    @classmethod
    def _is_cycle_cost_name(cls, name: str) -> bool:
        return bool(name) and \
            name.lower().rsplit("_", 1)[-1] in _CYCLE_COST_TOKENS

    def _emit_cycle_cost(self, node: ast.AST, message: str) -> None:
        self._emit(
            "REP013", node, message,
            hint="cycle/latency constants live in the ISA cost table "
                 "(core/isa.py KernelCosts / BS_*_COST) or "
                 "core/config.py: the engine and the cost report's "
                 "phase split both read them, so a constant forked "
                 "elsewhere makes the two disagree",
        )

    def _check_cycle_cost_assign(self, target: ast.AST,
                                 value: ast.AST | None) -> None:
        name = _dotted(target).rsplit(".", 1)[-1]
        if self._is_cycle_cost_name(name) and value is not None \
                and self._is_int_literal(value) and value.value != 0:
            self._emit_cycle_cost(
                value,
                f"{name} = {value.value} hard-codes a cycle/latency "
                f"cost outside the ISA cost table",
            )

    def _check_cycle_cost_keyword(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg and self._is_cycle_cost_name(kw.arg) \
                    and self._is_int_literal(kw.value) \
                    and kw.value.value != 0:
                self._emit_cycle_cost(
                    kw.value,
                    f"{kw.arg}={kw.value.value} hard-codes a "
                    f"cycle/latency cost at a call site",
                )

    def _check_cycle_cost_defaults(self, node) -> None:
        args = node.args
        pos = args.posonlyargs + args.args
        for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                args.defaults):
            self._check_cycle_cost_assign(ast.Name(id=arg.arg), default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            self._check_cycle_cost_assign(ast.Name(id=arg.arg), default)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._rep010_active:
            for target in node.targets:
                self._check_accmem_assign(target, node.value)
        if self._rep013_active:
            for target in node.targets:
                self._check_cycle_cost_assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._rep010_active:
            self._check_accmem_assign(node.target, node.value)
        if self._rep013_active:
            self._check_cycle_cost_assign(node.target, node.value)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self._rep010_active:
            self._check_accmem_compare(node)
        self.generic_visit(node)

    def _check_accmem_defaults(self, node) -> None:
        args = node.args
        pos = args.posonlyargs + args.args
        for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                args.defaults):
            self._check_accmem_assign(ast.Name(id=arg.arg), default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            self._check_accmem_assign(ast.Name(id=arg.arg), default)

    # -- REP002 ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if not self._test_file:
            self._check_rng_call(node)
        if self._rep010_active:
            self._check_accmem_keyword(node)
        if self._rep013_active:
            self._check_cycle_cost_keyword(node)
        if not self._test_file and not self._lock_factory:
            self._check_lock_construction(node)
        if self._runtime_file and not self._test_file:
            self._check_queue_construction(node)
            self._check_shm_construction(node)
        if (not self._test_file and not self._core_file
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "push_pair"):
            self._emit(
                "REP006", node,
                "direct MicroEngine.push_pair issue loop outside core/",
                hint="drive GEMMs through MixGemm/mix_gemm so the "
                     "backend dispatch can pick the fast path",
            )
        if self._kernel and isinstance(node.func, ast.Name) \
                and node.func.id == "float" and not self._in_float_fn():
            self._emit(
                "REP003", node,
                "float() conversion in an integer kernel module",
                hint="move the conversion into a function annotated "
                     "'-> float'",
            )
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if not name:
            return
        parts = name.split(".")
        # numpy's module-level RNG: np.random.rand / numpy.random.rand
        if len(parts) >= 3 and parts[-2] == "random" \
                and parts[0] in ("np", "numpy"):
            fn = parts[-1]
            if fn not in _NP_SEEDABLE:
                self._emit(
                    "REP002", node,
                    f"{name}() draws from numpy's global unseeded RNG",
                    hint="thread an np.random.default_rng(seed) "
                         "Generator through instead",
                )
                return
        # Seedable constructors called without a seed are still unseeded.
        if parts[-1] in ("default_rng", "RandomState") \
                and "random" in parts and not node.args \
                and not node.keywords:
            self._emit(
                "REP002", node,
                f"{name}() without a seed is nondeterministic",
                hint="pass an explicit integer seed",
            )
            return
        # stdlib random module's hidden global instance.
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _STDLIB_RANDOM_FNS:
            self._emit(
                "REP002", node,
                f"{name}() uses the stdlib global RNG",
                hint="use random.Random(seed) or an explicit numpy "
                     "Generator",
            )

    # -- REP003 ------------------------------------------------------

    def _in_float_fn(self) -> bool:
        return bool(self._float_ok) and self._float_ok[-1]

    def _returns_float(self, node) -> bool:
        r = node.returns
        return isinstance(r, ast.Name) and r.id == "float"

    def _visit_function(self, node) -> None:
        self._float_ok.append(self._returns_float(node))
        if self._cost_model:
            self._check_cost_model_docstring(node)
        if self._rep010_active:
            self._check_accmem_defaults(node)
        if self._rep013_active:
            self._check_cycle_cost_defaults(node)
        self.generic_visit(node)
        self._float_ok.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self._kernel and isinstance(node.value, float) \
                and not self._in_float_fn():
            self._emit(
                "REP003", node,
                f"float literal {node.value!r} in an integer kernel "
                f"module",
                hint="integer kernels must stay bit-exact; floats are "
                     "allowed only in functions annotated '-> float'",
            )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._kernel and isinstance(node.op, ast.Div) \
                and not self._in_float_fn():
            self._emit(
                "REP003", node,
                "true division '/' always produces a float",
                hint="use '//' for exact integer math, or annotate the "
                     "enclosing function '-> float'",
            )
        self.generic_visit(node)

    # -- REP004 ------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "REP004", node,
                "bare 'except:' catches SystemExit and KeyboardInterrupt",
                hint="name the exceptions this handler expects",
            )
        else:
            caught = _dotted(node.type).rsplit(".", 1)[-1]
            only_pass = all(isinstance(s, ast.Pass) for s in node.body)
            if caught in ("Exception", "BaseException") and only_pass:
                self._emit(
                    "REP004", node,
                    f"'except {caught}: pass' silently swallows every "
                    f"failure",
                    hint="narrow the exception type or at least record "
                         "the failure",
                )
        self.generic_visit(node)

    # -- REP005 ------------------------------------------------------

    def _check_cost_model_docstring(self, node) -> None:
        if node.name.startswith("_"):
            return
        tokens = set(node.name.lower().split("_"))
        if not tokens & _COST_NAME_TOKENS:
            return
        doc = ast.get_docstring(node) or ""
        if not _UNIT_PATTERN.search(doc):
            self._emit(
                "REP005", node,
                f"cost-model function {node.name}() does not state its "
                f"units in a docstring",
                hint="say what the number means: cycles, seconds, pJ, "
                     "W, GOPS/W, ...",
            )


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one module's source text; applies ``# repro: noqa``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            rule="REP000", severity=ERROR,
            message=f"cannot parse: {exc.msg}",
            path=path, line=exc.lineno or 0, col=exc.offset or 1,
        )]
    visitor = RepoInvariantVisitor(path)
    visitor.visit(tree)
    lines = source.splitlines()
    kept: list[Diagnostic] = []
    for diag in visitor.diagnostics:
        if 1 <= diag.line <= len(lines):
            rules = _noqa_rules(lines[diag.line - 1])
            if rules is not None and (not rules or diag.rule in rules):
                continue
        kept.append(diag)
    return kept


def lint_file(path: str | Path) -> list[Diagnostic]:
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read lint target {p}: {exc}") from exc
    return lint_source(source, str(p))


def iter_python_files(target: str | Path):
    """Yield ``.py`` files under ``target`` (a file or a directory)."""
    p = Path(target)
    if p.is_file():
        yield p
    elif p.is_dir():
        yield from sorted(p.rglob("*.py"))
    else:
        raise AnalysisError(f"lint target {p} does not exist")


def lint_paths(targets) -> DiagnosticReport:
    """Lint every ``.py`` file under the given files/directories."""
    report = DiagnosticReport()
    for target in targets:
        for path in iter_python_files(target):
            report.extend(lint_file(path))
    return report


__all__ = [
    "CYCLE_COST_HOME_SUFFIXES",
    "KERNEL_MODULE_SUFFIXES",
    "COST_MODEL_SUFFIXES",
    "LINT_RULES",
    "LOCK_FACTORY_SUFFIXES",
    "RepoInvariantVisitor",
    "is_test_path",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
