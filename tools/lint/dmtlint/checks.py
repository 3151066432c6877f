"""The dmt_lint check families.

Check IDs (stable; used in suppression comments and fixtures):

  determinism-banned-call   — RNG / wall-clock / thread-id calls in
                              protocol code (src/stream, src/hh,
                              src/matrix, src/sketch, src/core, src/net)
  determinism-unordered-iter— iterating an unordered container in
                              protocol code (emission order would leak
                              hash-table layout into protocol state)
  determinism-thread-fp     — thread-count queries and floating-point
                              accumulation whose order depends on a
                              thread/worker-count loop
  noalloc-violation         — an allocation (or unverifiable indirect
                              call) reachable from a DMT_NO_ALLOC function
  noalias-duplicate-arg     — the same buffer passed to two DMT_NOALIAS
                              (__restrict__) parameters, at least one
                              written through
  atomic-implicit-order     — an atomic operation in the concurrency scope
                              that does not spell its std::memory_order
                              (defaulted seq_cst, a single-order
                              compare_exchange, or an operator form)
  atomic-publish-relaxed    — a relaxed operation on a field classified
                              DMT_ATOMIC_PUBLISH
  atomic-counter-order      — a non-relaxed operation on a field
                              classified DMT_ATOMIC_COUNTER
  atomic-unclassified       — an atomic member field in the concurrency
                              scope with neither classification
  guard-unlocked-access     — a DMT_GUARDED_BY field touched by a function
                              that neither takes the named lock (or holds
                              the writer role) nor is reached exclusively
                              from functions that do
  untrusted-abort-path      — a DMT_CHECK-family abort reachable from a
                              DMT_UNTRUSTED_INPUT decode entry point
  untrusted-unclamped-alloc — a size-taking allocation inside a
                              DMT_UNTRUSTED_INPUT function body with no
                              prior clamp (remaining()/FitsRemaining/kMax*
                              or a validated-by-decoder call)
  annotation-error          — malformed or unbindable annotations

Suppression: `// dmt-lint: allow(<check-id>): <reason>` on or up to
BIND_WINDOW lines above the flagged line, or on the owning function's
signature to cover the whole function.
"""

import os
import re

from . import gcc_ast
from .annotations import BIND_WINDOW, _blank_comments

DETERMINISM_DIRS = (
    "src/stream", "src/hh", "src/matrix", "src/sketch", "src/core",
    "src/net", "src/serve",
)

# Individual files swept in addition to the directories above. src/util is
# mostly out of scope (timer.h wraps steady_clock, env.cc reads the
# environment), but the scheduler's building blocks live there and carry
# the same replay-determinism contract as the driver that uses them: the
# thread pool's batch barrier orders the site phase against the
# coordinator drain, and the aligned allocator backs the WindowPlan's
# site-keyed scratch.
DETERMINISM_FILES = (
    "src/util/thread_pool.h", "src/util/thread_pool.cc",
    "src/util/aligned.h",
)

_UNORDERED_CLASSES = frozenset(
    ["unordered_map", "unordered_set", "unordered_multimap",
     "unordered_multiset", "_Hashtable"]
)
# Reporting on begin/cbegin alone keeps one finding per loop (the paired
# end/cend call would double-report the same iteration).
_ITER_FNS = frozenset(["begin", "cbegin"])
_CLOCK_CLASSES = frozenset(
    ["system_clock", "steady_clock", "high_resolution_clock"]
)
_BANNED_GLOBAL = frozenset(
    ["rand", "srand", "random", "drand48", "lrand48", "mrand48", "rand_r",
     "time", "clock", "gettimeofday", "clock_gettime", "timespec_get",
     "localtime", "gmtime", "getpid", "gettid"]
)
_C_ALLOC = frozenset(
    ["malloc", "calloc", "realloc", "reallocarray", "aligned_alloc",
     "valloc", "posix_memalign", "strdup", "strndup"]
)
# Out-of-line libstdc++ growth entry points (no body in any TU — the
# implementation lives in the shared library), flagged by name as a
# backstop; everything with an instantiated body is walked instead.
_STRING_GROWTH = frozenset(
    ["_M_create", "_M_mutate", "_M_replace", "_M_append", "append",
     "push_back", "reserve", "resize", "insert", "assign"]
)
# Containers whose sized (n) and fill (n, value) constructors allocate in
# the constructor body. GCC wraps that body in a try_catch_expr (to destroy
# the already-built base if the allocation throws), and the raw dump prints
# no operands for it, so the walk never reaches the allocation: these
# constructors are classified as leaves at the call site instead.
_SIZED_CTOR_CLASSES = frozenset(["vector", "basic_string"])
_THREADISH_RE = re.compile(r"thread|worker|concurr", re.I)

_MAX_PATHS_PER_FN = 64
_MAX_CHAIN_SHOWN = 6

# Scope of the atomics-discipline family: the concurrency layers whose
# memory-order contracts are documented (RCU snapshot store, scheduler
# counters, transport byte counters, the thread pool). Unlike the
# annotation-driven guard/untrusted families, absence of an annotation is
# itself a finding here (atomic-unclassified), so the sweep must be scoped.
ATOMICS_DIRS = ("src/serve", "src/stream", "src/net")
ATOMICS_FILES = (
    "src/util/thread_pool.h", "src/util/thread_pool.cc",
    "src/util/aligned.h",
)

# The classes std::atomic member calls resolve into in GENERIC dumps:
# integral atomics dispatch through the __atomic_base base class,
# bool/pointer atomics stay on std::atomic, flags on atomic_flag.
_ATOMIC_SCOPES = frozenset(["atomic", "__atomic_base", "atomic_flag"])
_ATOMIC_OPS = frozenset(
    ["load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
     "fetch_or", "fetch_xor", "compare_exchange_strong",
     "compare_exchange_weak", "test_and_set", "clear"])
# std::memory_order enum values as they appear in integer_cst order args.
_ORDER_NAMES = {0: "relaxed", 1: "consume", 2: "acquire", 3: "release",
                4: "acq_rel", 5: "seq_cst"}
# Implicit defaulted orders materialize as integer_cst 5 identically to a
# written memory_order_seq_cst, so explicitness is checked lexically: count
# memory_order tokens over the statement's extent.
_MEMORD_RE = re.compile(r"\bmemory_order(?:_[a-z_]+|\s*::\s*[a-z_]+)")

_ABORT_NAMES = frozenset(
    ["abort", "exit", "_Exit", "_exit", "quick_exit", "terminate",
     "__assert_fail"])
# Lexical clamp evidence for wire-derived sizes: a latched-bounds check
# (remaining()/FitsRemaining) or a named kMax* backstop constant.
_CLAMP_RE = re.compile(r"remaining\s*\(|\bkMax\w+", re.I)
_GROWTH_SINKS = frozenset(["resize", "reserve", "assign"])
_ACQUIRE_KINDS = r"(?:lock_guard|unique_lock|scoped_lock|shared_lock)"


def _first_param_kind(section, fdecl):
    """Node kind of a member function's first parameter after `this`, or
    None when it has none."""
    ftype = section.node(fdecl.ref("type"))
    prms = ftype.ref("prms") if ftype is not None else None
    for _ in range(2):  # `this`, then the first declared parameter
        item = section.node(prms) if prms is not None else None
        if item is None:
            return None
        first = item
        prms = item.ref("chan")
    valu = section.node(first.ref("valu"))
    return valu.kind if valu is not None else None


class Finding:
    __slots__ = ("check_id", "file", "line", "function", "message")

    def __init__(self, check_id, file, line, function, message):
        self.check_id = check_id
        self.file = file
        self.line = line
        self.function = function
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s: %s" % (
            self.file, self.line or 0, self.check_id, self.function, self.message)


class CallSite:
    __slots__ = ("callee", "file", "line", "leaf", "abort_leaf")

    def __init__(self, callee, file, line, leaf=None, abort_leaf=None):
        self.callee = callee  # qname or None
        self.file = file
        self.line = line
        self.leaf = leaf      # description if this call IS an allocation
        self.abort_leaf = abort_leaf  # description if this call aborts


class FunctionInfo:
    __slots__ = ("qname", "file", "line", "calls", "indirect", "has_body",
                 "annotation", "roles", "sinks")

    def __init__(self, qname):
        self.qname = qname
        self.file = None
        self.line = None
        self.calls = []
        self.indirect = []  # (file, line)
        self.has_body = False
        self.annotation = None  # resolved "no_alloc" / "alloc_ok" / None
        self.roles = None   # set of "writer_side" / "untrusted", or None
        self.sinks = []     # (file, line, desc) size-taking allocations


class AllocPath:
    __slots__ = ("steps", "leaf")

    def __init__(self, steps, leaf):
        self.steps = steps  # [(file, line, callee_desc), ...] root-first
        self.leaf = leaf


def _norm(path):
    return path.replace("\\", "/")


def _is_repo_file(path, repo_root):
    if not path:
        return False
    p = _norm(os.path.normpath(path))
    root = _norm(os.path.normpath(repo_root)) + "/"
    return os.path.isabs(p) and p.startswith(root)


def _in_determinism_scope(path):
    p = _norm(path)
    if any(("/" + d + "/") in p or p.startswith(d + "/") for d in DETERMINISM_DIRS):
        return True
    return any(("/" + f) in p or p == f for f in DETERMINISM_FILES)


def _in_atomics_scope(path):
    p = _norm(path)
    if any(("/" + d + "/") in p or p.startswith(d + "/") for d in ATOMICS_DIRS):
        return True
    return any(("/" + f) in p or p == f for f in ATOMICS_FILES)


def build_file_index(repo_root, extra_files=()):
    """srcp locations in GCC dumps carry basenames only; this index maps a
    basename back to the repo file it names. Repo basenames are unique
    (enforced here: a collision raises, since it would make attribution
    ambiguous)."""
    index = {}
    roots = [os.path.join(repo_root, "src"),
             os.path.join(repo_root, "tools", "lint", "testdata")]
    files = list(extra_files)
    for r in roots:
        for dirpath, _dirs, names in os.walk(r):
            for n in names:
                if n.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, n))
    for f in files:
        base = os.path.basename(f)
        prev = index.get(base)
        full = os.path.normpath(os.path.abspath(f))
        if prev is not None and prev != full:
            raise RuntimeError(
                "duplicate basename %r (%s vs %s): dump srcp attribution "
                "needs unique basenames" % (base, prev, full))
        index[base] = full
    return index


class Analyzer:
    def __init__(self, repo_root, ann_index, file_index=None, scope_all=False):
        self.repo_root = repo_root
        self.ann = ann_index
        self.file_index = file_index if file_index is not None else {}
        self.scope_all = scope_all
        self.functions = {}
        self.findings = []
        self._decl_lines = {}  # file -> {line -> qname}
        self._alloc_memo = {}
        self._abort_memo = {}
        self._guard_memo = {}
        self._seen_sections = set()
        self.atomic_ops = []      # dicts, one per atomic member operation
        self.guard_accesses = []  # dicts, one per guarded-field access
        self._text_cache = {}     # file -> comment-blanked source lines

    # ------------------------------------------------------------------
    # Model building
    # ------------------------------------------------------------------

    def add_tu(self, tu):
        for section in tu.sections:
            self._add_section(section)

    def _fn(self, qname):
        fi = self.functions.get(qname)
        if fi is None:
            fi = FunctionInfo(qname)
            self.functions[qname] = fi
        return fi

    def _add_section(self, section):
        parent = section.lambda_parent_qname()
        ofile, oline = section.owner_srcp()
        if ofile is not None:
            ofile = self._resolve_file(ofile, section.tu) or ofile
        if parent:
            # One function may define several lambdas; the definition line
            # keeps their FunctionInfos (call edges, lexical extents for
            # the atomics token count) distinct.
            qname = parent + ("::<lambda@%d>" % oline if oline
                              else "::<lambda>")
        else:
            qname = section.qname()
        fi = self._fn(qname)
        fi.has_body = True
        # Inline/template functions are dumped once per including TU; the
        # dumps are identical, so process each definition exactly once.
        skey = (qname, ofile, oline)
        if skey in self._seen_sections:
            return
        self._seen_sections.add(skey)
        if ofile is not None and fi.file is None:
            fi.file = _norm(ofile)
            fi.line = oline
            if _is_repo_file(fi.file, self.repo_root):
                self._decl_lines.setdefault(fi.file, {})[oline] = qname
        if parent:
            # A lambda defined inside a function is reachable from it: add
            # a pseudo call edge so DMT_NO_ALLOC constraints propagate into
            # the closure body.
            pfi = self._fn(parent)
            pfi.calls.append(CallSite(qname, fi.file or section.tu.source,
                                      fi.line or 0))

        visits, backedges = gcc_ast.walk_body(section)
        in_scope = self._determinism_in_scope(fi)
        in_atomics = self._atomics_in_scope(fi)
        attr_file = fi.file if (fi.file and _is_repo_file(fi.file, self.repo_root)) else None

        for v in visits:
            node = v.node
            if node.kind == "component_ref" and attr_file:
                self._guard_access(section, node, attr_file, v.line, qname)
                continue
            if node.kind not in ("call_expr", "aggr_init_expr"):
                continue
            callee = gcc_ast.resolve_callee(section, node)
            if callee is None:
                if attr_file:
                    fi.indirect.append((attr_file, v.line))
                continue
            leaf = self._classify_alloc_leaf(section, callee)
            cq = gcc_ast.fdecl_qname(section, callee)
            fi.calls.append(CallSite(cq, attr_file or (fi.file or section.tu.source),
                                     v.line, leaf,
                                     self._classify_abort_leaf(section, callee)))
            if attr_file:
                sink = self._classify_growth_sink(section, node, callee, leaf)
                if sink is not None:
                    fi.sinks.append((attr_file, v.line, sink))
                self._atomic_call(section, node, callee, attr_file, v.line,
                                  qname, in_atomics)
            if in_scope and attr_file:
                self._determinism_call(section, callee, cq, attr_file, v.line, qname)
            if attr_file:
                self._noalias_call(section, node, callee, cq, attr_file, v.line, qname)

        if in_scope and attr_file and backedges:
            self._thread_fp_loops(section, visits, backedges, attr_file, qname)

    def _resolve_file(self, srcp_file, tu):
        """Map a dump srcp file (basename only) to the repo file it names,
        or None for system/non-repo files."""
        base = os.path.basename(srcp_file)
        if base == os.path.basename(tu.source):
            return os.path.normpath(os.path.abspath(tu.source))
        return self.file_index.get(base)

    def _determinism_in_scope(self, fi):
        if fi.file is None or not _is_repo_file(fi.file, self.repo_root):
            return False
        if self.scope_all:
            return True
        return _in_determinism_scope(os.path.relpath(fi.file, self.repo_root))

    def _atomics_in_scope(self, fi):
        if fi.file is None or not _is_repo_file(fi.file, self.repo_root):
            return False
        if self.scope_all:
            return True
        return _in_atomics_scope(os.path.relpath(fi.file, self.repo_root))

    # ------------------------------------------------------------------
    # Allocation classification
    # ------------------------------------------------------------------

    def _classify_alloc_leaf(self, section, fdecl):
        name = gcc_ast.identifier_of(section, fdecl.ref("name"))
        if name is not None:
            name = name.strip()
        chain = gcc_ast.scope_chain(section, fdecl)
        if fdecl.has_note("operator") and name is None:
            sfile, _ = gcc_ast.srcp_of(fdecl)
            if sfile and os.path.basename(sfile) == "new":
                ftype = section.node(fdecl.ref("type"))
                retn = section.node(ftype.ref("retn")) if ftype is not None else None
                if retn is not None and retn.kind == "pointer_type":
                    return "operator new (srcp <new>:%s)" % (gcc_ast.srcp_of(fdecl)[1],)
            return None
        if name in _C_ALLOC and (not chain or chain[-1] in ("std", "__gnu_cxx")):
            return "%s()" % name
        if name in _STRING_GROWTH and chain and chain[-1] == "basic_string":
            if fdecl.get("body") == "undefined":
                return "std::string growth (%s)" % name
        if (fdecl.has_note("constructor") and chain and chain[0] == "std"
                and chain[-1] in _SIZED_CTOR_CLASSES
                and _first_param_kind(section, fdecl) == "integer_type"):
            return "std::%s sized constructor" % chain[-1]
        return None

    def _classify_abort_leaf(self, section, fdecl):
        """Description if a call to `fdecl` terminates the process, for the
        untrusted-abort-path walk. The DMT_CHECK macros expand to a call to
        dmt::internal::CheckFailed, so that name is the leaf whether or not
        its body (which calls std::abort) is visible in this TU."""
        name = gcc_ast.identifier_of(section, fdecl.ref("name"))
        if name is None:
            return None
        name = name.strip()
        chain = gcc_ast.scope_chain(section, fdecl)
        if name == "CheckFailed" and chain[-2:] == ["dmt", "internal"]:
            return "DMT_CHECK abort (dmt::internal::CheckFailed)"
        if name in _ABORT_NAMES and (not chain or chain == ["std"]):
            return "%s()" % name
        return None

    def _classify_growth_sink(self, section, call_node, fdecl, alloc_leaf):
        """Description if this call is a size-taking allocation, for the
        untrusted-unclamped-alloc check: container growth, a sized Matrix
        construction, or a raw allocation leaf."""
        if alloc_leaf is not None:
            return alloc_leaf
        name = gcc_ast.decl_name_component(section, fdecl)
        chain = gcc_ast.scope_chain(section, fdecl)
        cls = chain[-1] if chain else None
        if name in _GROWTH_SINKS and cls is not None:
            return "%s::%s" % (cls, name)
        if (cls == "Matrix" and name == "Matrix"
                and len(gcc_ast.call_args(call_node)) >= 2):
            return "Matrix(rows, cols) construction"
        return None

    # ------------------------------------------------------------------
    # Atomics discipline (event collection)
    # ------------------------------------------------------------------

    def _atomic_call(self, section, node, fdecl, attr_file, line, owner_qname,
                     in_scope):
        chain = gcc_ast.scope_chain(section, fdecl)
        if not chain or chain[-1] not in _ATOMIC_SCOPES:
            return
        name = gcc_ast.decl_name_component(section, fdecl)
        is_op = name == "<op>"
        if not is_op and name not in _ATOMIC_OPS:
            return  # constructor, is_lock_free, ...
        args = gcc_ast.call_args(node)
        is_cas = name.startswith("compare_exchange")

        def order_of(aref):
            n = section.node(gcc_ast.strip_wrappers(section, aref))
            if n is not None and n.kind == "integer_cst":
                try:
                    v = int(n.get("int"))
                except (TypeError, ValueError):
                    return None
                if 0 <= v <= 5:
                    return v
            return None

        order = fail_order = None
        if not is_op and len(args) >= 2:
            # The order is the last argument (arg 0 is `this`); an explicit
            # two-order compare_exchange carries success then failure.
            if is_cas and len(args) >= 5:
                order, fail_order = order_of(args[-2]), order_of(args[-1])
            else:
                order = order_of(args[-1])
        field = self._atomic_target(section, args[0], section.tu) if args else None
        self.atomic_ops.append({
            "file": attr_file, "line": line, "fn": owner_qname,
            "op": name, "nargs": len(args), "is_cas": is_cas,
            "order": order, "fail_order": fail_order,
            "field": field, "in_scope": in_scope,
        })

    def _atomic_target(self, section, ref, tu):
        """The repo member field an atomic operation's `this` argument
        names: ("field"|"local", file, line, name, class) or None. Walks
        addr_expr / component_ref chains outside-in; the first *named*
        field whose srcp resolves into the repo is the user's field (inner
        unnamed fields belong to the <atomic> headers). Lambda-capture
        fields (unnamed closure classes) count as locals."""
        for _ in range(12):
            ref = gcc_ast.strip_wrappers(section, ref)
            n = section.node(ref)
            if n is None:
                return None
            if n.kind in ("addr_expr", "indirect_ref", "array_ref", "mem_ref"):
                ref = n.ref("op 0")
                if ref is None:
                    return None
                continue
            if n.kind in ("var_decl", "parm_decl", "result_decl"):
                nm = gcc_ast.identifier_of(section, n.ref("name")) or "?"
                return ("local", None, None, nm.strip(), None)
            if n.kind != "component_ref":
                return None
            fref = n.ref("op 1")
            fd = section.node(fref) if fref is not None else None
            if fd is not None and fd.kind == "field_decl":
                fname = gcc_ast.identifier_of(section, fd.ref("name"))
                sfile, sline = gcc_ast.srcp_of(fd)
                if fname and sfile and sline:
                    rfile = self._resolve_file(sfile, tu)
                    if rfile is not None and _is_repo_file(rfile, self.repo_root):
                        cls = self._field_class_name(section, fd)
                        if cls is not None and re.match(r"[A-Za-z_]\w*$", cls):
                            return ("field", rfile, sline, fname.strip(), cls)
                        return ("local", None, None, fname.strip(), None)
            ref = n.ref("op 0")
            if ref is None:
                return None
        return None

    def _field_class_name(self, section, fd):
        s = section.node(fd.ref("scpe")) if fd.ref("scpe") is not None else None
        if s is not None and s.kind.endswith("_type"):
            return gcc_ast.identifier_of(section, s.ref("name"))
        return None

    # ------------------------------------------------------------------
    # Guard discipline (event collection)
    # ------------------------------------------------------------------

    def _guard_access(self, section, node, attr_file, line, owner_qname):
        fref = node.ref("op 1")
        fd = section.node(fref) if fref is not None else None
        if fd is None or fd.kind != "field_decl":
            return
        fname = gcc_ast.identifier_of(section, fd.ref("name"))
        sfile, sline = gcc_ast.srcp_of(fd)
        if not fname or not sfile or not sline:
            return
        rfile = self._resolve_file(sfile, section.tu)
        if rfile is None or not _is_repo_file(rfile, self.repo_root):
            return
        guard = self.ann.for_file(rfile).guard_at(sline)
        if guard is None:
            return
        self.guard_accesses.append({
            "file": attr_file, "line": line, "fn": owner_qname,
            "field": fname.strip(), "guard": guard,
            "cls": self._field_class_name(section, fd),
        })

    # ------------------------------------------------------------------
    # Determinism checks (per call site)
    # ------------------------------------------------------------------

    def _determinism_call(self, section, fdecl, cq, file, line, owner_qname):
        name = gcc_ast.identifier_of(section, fdecl.ref("name"))
        if name is None:
            return
        name = name.strip()
        chain = gcc_ast.scope_chain(section, fdecl)
        cls = chain[-1] if chain else None

        if name in _ITER_FNS and cls in _UNORDERED_CLASSES:
            self._report("determinism-unordered-iter", file, line, owner_qname,
                         "iterates an unordered container (%s::%s); hash-table "
                         "order is not replay-stable — drain into a sorted "
                         "container or iterate an ordered mirror before it can "
                         "reach protocol state or messages" % (cls, name))
            return

        banned = None
        if name in _BANNED_GLOBAL and (not chain or chain[-1] == "std"):
            banned = name + "()"
        elif name == "now" and cls in _CLOCK_CLASSES:
            banned = "std::chrono::%s::now()" % cls
        elif name == "get_id" and (cls == "thread" or (chain and chain[-1] == "this_thread")):
            banned = "thread-id query (%s)" % cq
        elif cls == "random_device":
            banned = "std::random_device::%s" % name
        if banned is not None:
            self._report("determinism-banned-call", file, line, owner_qname,
                         "calls %s — nondeterministic input in protocol code; "
                         "replay must be a pure function of the stream"
                         % banned)
            return

        if name == "hardware_concurrency" and cls == "thread":
            self._report("determinism-thread-fp", file, line, owner_qname,
                         "queries std::thread::hardware_concurrency(); results "
                         "must be bit-identical for any thread count, so "
                         "thread-count-dependent values must not feed "
                         "computation or message contents")

    # ------------------------------------------------------------------
    # Thread-count-dependent FP reduction order
    # ------------------------------------------------------------------

    def _thread_fp_loops(self, section, visits, backedges, file, owner_qname):
        index_of = {}
        for v in visits:
            index_of.setdefault(v.node.nid, v.index)
        for start, end in backedges:
            region = visits[start:end + 1]
            if not self._region_is_thread_loop(section, region):
                continue
            for v in region:
                n = v.node
                if n.kind != "modify_expr":
                    continue
                t = section.node(n.ref("type"))
                if t is None or t.kind != "real_type":
                    continue
                lhs_ref = n.ref("op 0")
                rhs_ref = n.ref("op 1")
                if lhs_ref is None or rhs_ref is None:
                    continue
                lhs_key = gcc_ast.structural_key(section, lhs_ref)
                if not self._subtree_contains(section, rhs_ref, lhs_key):
                    continue  # plain store, not an accumulation
                base = self._base_decl(section, lhs_ref)
                if base is not None and base.kind == "var_decl":
                    first = index_of.get(base.nid)
                    if first is not None and first >= start:
                        continue  # accumulator lives inside the loop
                self._report(
                    "determinism-thread-fp", file, v.line, owner_qname,
                    "floating-point accumulation inside a loop whose bounds "
                    "reference a thread/worker count: the reduction order "
                    "(and so the rounded result) would change with the "
                    "thread count — accumulate in a fixed order independent "
                    "of parallelism")

    def _region_is_thread_loop(self, section, region):
        for v in region:
            if v.node.kind != "cond_expr":
                continue
            cref = v.node.ref("op 0")
            if cref is None:
                continue
            for nm in self._decl_names_in(section, cref):
                if _THREADISH_RE.search(nm):
                    return True
        return False

    def _decl_names_in(self, section, ref, depth=0, seen=None):
        if seen is None:
            seen = set()
        if depth > 10 or ref in seen:
            return
        seen.add(ref)
        n = section.node(ref)
        if n is None:
            return
        if n.kind in ("var_decl", "parm_decl", "field_decl"):
            nm = gcc_ast.identifier_of(section, n.ref("name"))
            if nm:
                yield nm
            return
        for k, v in n.fields:
            base = k.split(" ")[0]
            if (k.isdigit() or base in ("op", "expr", "fn", "decl")) and v.startswith("@"):
                yield from self._decl_names_in(section, int(v[1:]), depth + 1, seen)

    def _subtree_contains(self, section, ref, key, depth=0, seen=None):
        if seen is None:
            seen = set()
        if depth > 12 or ref in seen:
            return False
        seen.add(ref)
        if gcc_ast.structural_key(section, ref) == key:
            return True
        n = section.node(gcc_ast.strip_wrappers(section, ref))
        if n is None:
            return False
        for k, v in n.fields:
            base = k.split(" ")[0]
            if (k.isdigit() or base in ("op", "expr", "fn", "decl", "valu")) and v.startswith("@"):
                if self._subtree_contains(section, int(v[1:]), key, depth + 1, seen):
                    return True
        return False

    def _base_decl(self, section, ref, depth=0):
        ref = gcc_ast.strip_wrappers(section, ref)
        n = section.node(ref)
        if n is None or depth > 10:
            return None
        if n.kind in ("var_decl", "parm_decl", "result_decl", "field_decl"):
            return n
        nref = n.ref("op 0")
        if nref is None:
            return None
        return self._base_decl(section, nref, depth + 1)

    # ------------------------------------------------------------------
    # Workspace-aliasing check
    # ------------------------------------------------------------------

    def _noalias_call(self, section, call_node, fdecl, cq, file, line, owner_qname):
        # GCC's GENERIC dump erases the restrict qualifier, so the contract
        # is bound lexically: the callee's resolved decl file is scanned for
        # a DMT_NOALIAS parameter list matching its name and srcp line.
        dfile, dline = gcc_ast.srcp_of(fdecl)
        if dfile is None or dline is None:
            return
        dfile = self._resolve_file(dfile, section.tu)
        if dfile is None or not _is_repo_file(dfile, self.repo_root):
            return
        name = gcc_ast.decl_name_component(section, fdecl)
        if not name:
            return
        decl = self.ann.for_file(dfile).noalias_for(name, dline, BIND_WINDOW)
        if decl is None or len(decl.params) < 2:
            return
        args = gcc_ast.call_args(call_node)
        # Member functions receive `this` as argument 0; DMT_NOALIAS
        # positions count declared parameters only.
        ftype = section.node(fdecl.ref("type"))
        shift = 1 if (ftype is not None and ftype.kind == "method_type") else 0
        keys = {}
        for pos, writable in decl.params:
            if pos + shift < len(args):
                keys[pos] = (gcc_ast.structural_key(section, args[pos + shift]),
                             writable)
        positions = sorted(keys)
        for ai in range(len(positions)):
            for bi in range(ai + 1, len(positions)):
                pa, pb = positions[ai], positions[bi]
                ka, wa = keys[pa]
                kb, wb = keys[pb]
                if ka == kb and (wa or wb):
                    self._report(
                        "noalias-duplicate-arg", file, line, owner_qname,
                        "passes the same buffer to two DMT_NOALIAS "
                        "(__restrict__) parameters of %s (positions %d and "
                        "%d, at least one written): the kernel's no-alias "
                        "contract makes this undefined behavior" % (cq, pa, pb))

    # ------------------------------------------------------------------
    # No-alloc call-graph walk
    # ------------------------------------------------------------------

    _FN_MACRO_NAMES = {"no_alloc": "DMT_NO_ALLOC", "alloc_ok": "DMT_ALLOC_OK",
                       "writer_side": "DMT_WRITER_SIDE",
                       "untrusted": "DMT_UNTRUSTED_INPUT"}

    def resolve_annotations(self):
        """Bind the function-level macros (DMT_NO_ALLOC / DMT_ALLOC_OK /
        DMT_WRITER_SIDE / DMT_UNTRUSTED_INPUT) to function definitions
        (nearest definition at or within BIND_WINDOW lines below the macro)."""
        for file, lines in self._decl_lines.items():
            fa = self.ann.for_file(file)
            anns = (list(fa.no_alloc.values()) + list(fa.alloc_ok.values())
                    + list(fa.writer_side.values())
                    + list(fa.untrusted.values()))
            for a in anns:
                target = None
                for delta in range(0, BIND_WINDOW + 1):
                    q = lines.get(a.line + delta)
                    if q is not None:
                        target = q
                        break
                if target is None:
                    self._report(
                        "annotation-error", file, a.line, "-",
                        "%s does not bind to any function definition within "
                        "%d lines — put it on the definition's signature"
                        % (self._FN_MACRO_NAMES[a.kind], BIND_WINDOW))
                    continue
                a.bound = True
                fi = self.functions.get(target)
                if fi is None:
                    continue
                if a.kind in ("no_alloc", "alloc_ok"):
                    if fi.annotation is None:
                        fi.annotation = a.kind
                else:
                    if fi.roles is None:
                        fi.roles = set()
                    fi.roles.add(a.kind)
        for fa in self.ann.files():
            for line, msg in fa.errors:
                self._report("annotation-error", fa.path, line, "-", msg)

    def check_noalloc(self):
        roots = [fi for fi in self.functions.values()
                 if fi.annotation == "no_alloc"]
        for fi in sorted(roots, key=lambda f: (f.file or "", f.line or 0)):
            # One finding per offending site (deepest repo-owned frame:
            # that is where a fix or DMT_ALLOC_OK belongs), shortest path
            # shown when several reach the same site.
            best = {}
            for path in self._alloc_paths(fi.qname, frozenset()):
                file, line, desc = path.steps[0]
                for sf, sl, _sd in reversed(path.steps):
                    if _is_repo_file(sf, self.repo_root):
                        file, line = sf, sl
                        break
                key = (file, line)
                if key not in best or len(path.steps) < len(best[key].steps):
                    best[key] = path
            for (file, line), path in sorted(best.items(),
                                             key=lambda kv: kv[0]):
                chain = " -> ".join(d for _, _, d in path.steps[:_MAX_CHAIN_SHOWN])
                if len(path.steps) > _MAX_CHAIN_SHOWN:
                    chain += " -> ..."
                self._report(
                    "noalloc-violation", file, line, fi.qname,
                    "DMT_NO_ALLOC function reaches %s via %s — hoist the "
                    "allocation into a DMT_ALLOC_OK setup path or remove it"
                    % (path.leaf, chain))

    def _alloc_paths(self, qname, stack):
        if qname in self._alloc_memo:
            return self._alloc_memo[qname]
        if qname in stack:
            return []
        fi = self.functions.get(qname)
        if fi is None:
            return []
        stack = stack | {qname}
        out = []
        for cs in fi.calls:
            if len(out) >= _MAX_PATHS_PER_FN:
                break
            if cs.leaf is not None:
                out.append(AllocPath([(cs.file, cs.line, cs.callee or cs.leaf)],
                                     cs.leaf))
                continue
            if cs.callee is None:
                continue
            sub = self.functions.get(cs.callee)
            if sub is None or not sub.has_body:
                continue  # external, body unknown: leaves are the backstop
            if sub.annotation == "alloc_ok":
                continue  # explicitly allowlisted setup path
            for p in self._alloc_paths(cs.callee, stack):
                if len(out) >= _MAX_PATHS_PER_FN:
                    break
                out.append(AllocPath([(cs.file, cs.line, cs.callee)] + p.steps,
                                     p.leaf))
        for file, line in fi.indirect:
            if len(out) >= _MAX_PATHS_PER_FN:
                break
            out.append(AllocPath(
                [(file, line, "<indirect call>")],
                "an indirect call (callee not statically resolvable)"))
        self._alloc_memo[qname] = out
        return out

    # ------------------------------------------------------------------
    # Atomics discipline (checks)
    # ------------------------------------------------------------------

    def _file_lines(self, path):
        """Comment-blanked source lines of a repo file (1-indexed via
        lines[i-1]), or None."""
        cached = self._text_cache.get(path)
        if cached is not None:
            return cached
        try:
            with open(path, "r", errors="replace") as f:
                text = f.read()
        except OSError:
            self._text_cache[path] = []
            return []
        lines = _blank_comments(text).splitlines()
        self._text_cache[path] = lines
        return lines

    def _fn_order_tokens(self, qname):
        """memory_order tokens written inside a function's lexical extent.
        Statement-level attribution is unreliable in the dump (line info
        lags inside loop bodies), so explicitness is checked at function
        granularity: every ordered atomic operation the AST sees must be
        matched by a memory_order token somewhere in the function text."""
        fi = self.functions.get(qname)
        if fi is None:
            return 0
        ext = self._fn_extent(fi)
        if ext is None:
            return 0
        lines = self._file_lines(fi.file)
        text = "\n".join(lines[ext[0] - 1:ext[1]])
        return len(_MEMORD_RE.findall(text))

    def check_atomics(self):
        groups = {}
        for ev in self.atomic_ops:
            if not ev["in_scope"]:
                continue
            field = ev["field"]
            fdesc = ("field %s" % field[3]) if field and field[0] == "field" \
                else ("%s (local)" % field[3] if field else "the target")
            # --- explicit-order discipline -----------------------------
            if ev["op"] == "<op>":
                self._report(
                    "atomic-implicit-order", ev["file"], ev["line"], ev["fn"],
                    "atomic operator form on %s (++/--/+=/= or implicit "
                    "conversion) cannot name a memory order — use "
                    ".load()/.store()/.fetch_add() with an explicit "
                    "std::memory_order" % fdesc)
            elif ev["is_cas"] and ev["nargs"] < 5:
                self._report(
                    "atomic-implicit-order", ev["file"], ev["line"], ev["fn"],
                    "%s on %s names at most one memory order — spell both "
                    "the success and the failure order explicitly"
                    % (ev["op"], fdesc))
            else:
                need = 2 if (ev["is_cas"] and ev["nargs"] >= 5) else 1
                g = groups.setdefault(ev["fn"], {"need": 0, "ops": [],
                                                 "file": ev["file"],
                                                 "line": ev["line"]})
                g["need"] += need
                g["ops"].append(ev["op"])
                g["line"] = min(g["line"], ev["line"]) or g["line"]
            # --- classification discipline -----------------------------
            if field is None or field[0] != "field":
                continue
            _, ffile, fline, fname, _cls = field
            classification = self.ann.for_file(ffile).atomic_class_at(fline)
            orders = [o for o in (ev["order"], ev["fail_order"])
                      if o is not None and ev["op"] != "<op>"]
            if classification is None:
                self._report(
                    "atomic-unclassified", ev["file"], ev["line"], ev["fn"],
                    "atomic field %s is unclassified — annotate its "
                    "declaration (%s:%d) with DMT_ATOMIC_PUBLISH (carries "
                    "synchronization) or DMT_ATOMIC_COUNTER (pure statistic)"
                    % (fname, os.path.relpath(ffile, self.repo_root), fline))
            elif classification == "publish" and any(o == 0 for o in orders):
                self._report(
                    "atomic-publish-relaxed", ev["file"], ev["line"], ev["fn"],
                    "relaxed %s on DMT_ATOMIC_PUBLISH field %s — publish "
                    "fields carry synchronization; use the documented "
                    "acquire/release/seq_cst order or reclassify the field"
                    % (ev["op"], fname))
            elif classification == "counter" and any(o != 0 for o in orders):
                bad = next(o for o in orders if o != 0)
                self._report(
                    "atomic-counter-order", ev["file"], ev["line"], ev["fn"],
                    "%s on DMT_ATOMIC_COUNTER field %s uses memory_order_%s "
                    "— stat counters synchronize nothing and must be "
                    "explicitly relaxed (or reclassified DMT_ATOMIC_PUBLISH)"
                    % (ev["op"], fname, _ORDER_NAMES.get(bad, bad)))
        for fn, g in groups.items():
            tokens = self._fn_order_tokens(fn)
            if tokens < g["need"]:
                ops = ", ".join(sorted(set(g["ops"])))
                self._report(
                    "atomic-implicit-order", g["file"], g["line"], fn,
                    "atomic %s defaults its std::memory_order (implicit "
                    "seq_cst): the function writes %d memory_order token%s "
                    "but performs %d ordered atomic operation%s — the "
                    "RCU/counter contracts require the order to be spelled "
                    "at every site" % (ops, tokens,
                                       "" if tokens == 1 else "s", g["need"],
                                       "" if g["need"] == 1 else "s"))

    # ------------------------------------------------------------------
    # Guard discipline (checks)
    # ------------------------------------------------------------------

    def _fn_extent(self, fi):
        """(start, end) line range of a function body via brace matching
        from its signature line, or None."""
        if fi.file is None or not fi.line:
            return None
        lines = self._file_lines(fi.file)
        if not lines or fi.line > len(lines):
            return None
        depth = 0
        opened = False
        for i in range(fi.line, min(fi.line + 800, len(lines) + 1)):
            for ch in lines[i - 1]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
                    if opened and depth <= 0:
                        return (fi.line, i)
        return (fi.line, min(fi.line + 800, len(lines)))

    def _fn_acquires(self, fi, guard):
        """True if the function's lexical extent acquires `guard`: a scoped
        lock object constructed on it or a direct .lock() call. Function
        granularity — a lock anywhere in the body satisfies the check."""
        ext = self._fn_extent(fi)
        if ext is None:
            return False
        text = "\n".join(self._file_lines(fi.file)[ext[0] - 1:ext[1]])
        pat = (_ACQUIRE_KINDS + r"\s*(?:<[^;()]*>)?\s+\w+\s*[({]\s*"
               + re.escape(guard) + r"\b")
        if re.search(pat, text):
            return True
        return re.search(r"\b" + re.escape(guard) + r"\s*\.\s*lock\s*\(",
                         text) is not None

    def _guard_ok(self, qname, guard, rev, stack):
        """True if `qname` holds `guard` (lexically / by role), or is
        reached only from functions that do. Optimistic on cycles."""
        key = (qname, guard)
        if key in self._guard_memo:
            return self._guard_memo[key]
        if key in stack:
            return True
        fi = self.functions.get(qname)
        if fi is None:
            return False
        ok = False
        if guard == "writer":
            ok = bool(fi.roles) and "writer_side" in fi.roles
        else:
            ok = self._fn_acquires(fi, guard)
        if not ok:
            callers = rev.get(qname, ())
            ok = bool(callers) and all(
                self._guard_ok(c, guard, rev, stack | {key}) for c in callers)
        self._guard_memo[key] = ok
        return ok

    def check_guards(self):
        if not self.guard_accesses:
            return
        rev = {}
        for fi in self.functions.values():
            for cs in fi.calls:
                if cs.callee is not None:
                    rev.setdefault(cs.callee, set()).add(fi.qname)
        for ev in self.guard_accesses:
            comps = ev["fn"].split("::")
            cls = ev["cls"]
            # Constructors/destructor of the owning class run before/after
            # any sharing (and materialize the in-class initializers).
            if (cls and len(comps) >= 2 and comps[-2] == cls
                    and comps[-1] in (cls, "~" + cls)):
                continue
            if self._guard_ok(ev["fn"], ev["guard"], rev, frozenset()):
                continue
            if ev["guard"] == "writer":
                msg = ("field %s is DMT_GUARDED_BY(writer) but %s is not "
                       "DMT_WRITER_SIDE and is not reached exclusively from "
                       "writer-side functions — mark the function or move "
                       "the access" % (ev["field"], ev["fn"]))
            else:
                msg = ("field %s is DMT_GUARDED_BY(%s) but %s does not "
                       "acquire %s (no scoped lock or .lock() in its body) "
                       "and is not reached exclusively from functions that "
                       "do — take the lock or move the access"
                       % (ev["field"], ev["guard"], ev["fn"], ev["guard"]))
            self._report("guard-unlocked-access", ev["file"], ev["line"],
                         ev["fn"], msg)

    # ------------------------------------------------------------------
    # Untrusted-input checks
    # ------------------------------------------------------------------

    def _abort_paths(self, qname, stack):
        """AllocPath-shaped walk to aborting leaves (same mechanics as
        _alloc_paths; indirect calls are unverifiable and count)."""
        if qname in self._abort_memo:
            return self._abort_memo[qname]
        if qname in stack:
            return []
        fi = self.functions.get(qname)
        if fi is None:
            return []
        stack = stack | {qname}
        out = []
        for cs in fi.calls:
            if len(out) >= _MAX_PATHS_PER_FN:
                break
            if cs.abort_leaf is not None:
                out.append(AllocPath([(cs.file, cs.line, cs.abort_leaf)],
                                     cs.abort_leaf))
                continue
            if cs.callee is None:
                continue
            sub = self.functions.get(cs.callee)
            if sub is None or not sub.has_body:
                continue  # external, body unknown: named leaves backstop
            for p in self._abort_paths(cs.callee, stack):
                if len(out) >= _MAX_PATHS_PER_FN:
                    break
                out.append(AllocPath([(cs.file, cs.line, cs.callee)] + p.steps,
                                     p.leaf))
        for file, line in fi.indirect:
            if len(out) >= _MAX_PATHS_PER_FN:
                break
            out.append(AllocPath(
                [(file, line, "<indirect call>")],
                "an indirect call (callee not statically resolvable)"))
        self._abort_memo[qname] = out
        return out

    def _has_clamp(self, fi, sink_line):
        """True if a clamp precedes the sink inside the function body: a
        remaining()/FitsRemaining/kMax* token, or a call to another
        DMT_UNTRUSTED_INPUT function (validated-by-decoder — e.g. RecvFrame
        resizing to a length DecodeFrameHeader already bounded)."""
        if fi.file is None or not fi.line:
            return False
        lines = self._file_lines(fi.file)
        start = min(fi.line, sink_line)
        seg = "\n".join(lines[start - 1:min(sink_line, len(lines))])
        if _CLAMP_RE.search(seg):
            return True
        for cs in fi.calls:
            if cs.callee is None or not cs.line or cs.line > sink_line:
                continue
            sub = self.functions.get(cs.callee)
            if sub is not None and sub.roles and "untrusted" in sub.roles:
                return True
        return False

    def check_untrusted(self):
        roots = [fi for fi in self.functions.values()
                 if fi.roles and "untrusted" in fi.roles]
        for fi in sorted(roots, key=lambda f: (f.file or "", f.line or 0)):
            best = {}
            for path in self._abort_paths(fi.qname, frozenset()):
                file, line, _desc = path.steps[0]
                for sf, sl, _sd in reversed(path.steps):
                    if _is_repo_file(sf, self.repo_root):
                        file, line = sf, sl
                        break
                key = (file, line)
                if key not in best or len(path.steps) < len(best[key].steps):
                    best[key] = path
            for (file, line), path in sorted(best.items(),
                                             key=lambda kv: kv[0]):
                chain = " -> ".join(d for _, _, d in path.steps[:_MAX_CHAIN_SHOWN])
                if len(path.steps) > _MAX_CHAIN_SHOWN:
                    chain += " -> ..."
                self._report(
                    "untrusted-abort-path", file, line, fi.qname,
                    "DMT_UNTRUSTED_INPUT decoder reaches %s via %s — "
                    "decoders parse adversarial bytes and must fail by "
                    "returning an error, never by trapping" % (path.leaf, chain))
            for sfile, sline, desc in fi.sinks:
                if self._has_clamp(fi, sline):
                    continue
                self._report(
                    "untrusted-unclamped-alloc", sfile, sline, fi.qname,
                    "wire-derived size reaches %s with no prior clamp in "
                    "%s (no remaining()/FitsRemaining/kMax* bound and no "
                    "validated-by-decoder call) — bound it against the "
                    "64 MiB frame backstop before allocating"
                    % (desc, fi.qname))

    # ------------------------------------------------------------------
    # Reporting / suppression
    # ------------------------------------------------------------------

    def _report(self, check_id, file, line, function, message):
        if not line:
            # Only expr_stmt nodes carry line info; a finding inside a
            # body with no preceding statement (e.g. a lone return) falls
            # back to the owning function's signature line.
            fi = self.functions.get(function)
            if fi is not None and fi.file == file and fi.line:
                line = fi.line
        if file and _is_repo_file(file, self.repo_root):
            fa = self.ann.for_file(file)
            if line and fa.allows_at(check_id, line):
                return
            # Function-level suppression: an allow on the signature of the
            # owning function covers the whole body.
            fi = self.functions.get(function)
            if (fi is not None and fi.file == file
                    and fi.line and fa.allows_at(check_id, fi.line)):
                return
        self.findings.append(Finding(check_id, file or "?", line or 0,
                                     function, message))

    def finish(self):
        self.resolve_annotations()
        self.check_noalloc()
        self.check_atomics()
        self.check_guards()
        self.check_untrusted()
        uniq = {}
        for f in self.findings:
            uniq.setdefault((f.file, f.line, f.check_id, f.function,
                             f.message), f)
        self.findings = sorted(
            uniq.values(), key=lambda f: (f.file, f.line, f.check_id))
        return self.findings
