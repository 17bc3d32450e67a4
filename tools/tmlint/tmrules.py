"""tmlint rule engine: TM1-TM4 over the tmmodel source model.

Rule families (docs/architecture.md section 9 has the full catalogue):

  TM1  raw shared access inside a checked transaction body — a memory
       write that does not go through TxDesc instrumentation, or a call
       to the tm/raw.h escape hatches / raw std memory primitives on
       non-local data.
  TM2  unsafe call — a call from an atomic body that does not resolve
       to a TM_SAFE / TM_PURE (or, outside explicitly-atomic regions,
       TM_CALLABLE) function, after closing over visible bodies of
       unannotated callees the way GCC's inliner-driven safety
       inference does.
  TM3  irrevocable-only operation — syscall/I-O, raw allocation,
       mutex, atomic RMW, or a TM_UNSAFE callee — legal only in a
       relaxed transaction or on the serial path (lexically after an
       unsafeOp() in-flight switch in the same block).
  TM4  handler purity — onCommit/onAbort bodies run outside the
       transaction and must not touch the tm API or the TxDesc.

Waivers (comment markers, scanned by tmlexer; each covers its own
line plus the two following lines, so a standalone marker line can
cover a two-line statement):
  tm-captured: <reason>     waives TM1 — writes to captured
                            (transaction-fresh) memory, GCC's
                            captured-memory optimization.
  tm-pure-local: <reason>   waives TM1/TM3 — a std call operating on
                            private stack copies (the paper's
                            marshal-out pattern).
"""

from __future__ import annotations

from collections import namedtuple

from tmmodel import ANNOTATIONS, _TYPE_STARTERS, _KEYWORDS_NOT_CALLS
from tmlexer import match_brace, match_paren

Diagnostic = namedtuple("Diagnostic", ["file", "line", "rule", "msg"])

# Runtime API spellings; allowed in transaction bodies, forbidden in
# TM_PURE bodies and commit/abort handlers.
TM_API = {
    "txLoad", "txStore", "txLoadBytes", "txStoreBytes", "txMalloc",
    "txTryMalloc", "txFree", "unsafeOp", "noteCall", "retry", "run",
    "myDesc", "inTransaction",
}

# TxDesc members reachable from transaction bodies.
TX_METHODS = {"read", "write", "onCommit", "onAbort", "site", "domain"}

# Irrevocable free functions: syscalls, I/O, raw allocation, process
# control. Calling one speculatively can never be rolled back.
IRREVOCABLE_CALLS = {
    "malloc", "calloc", "realloc", "free", "posix_memalign",
    "aligned_alloc", "strdup",
    "printf", "fprintf", "vfprintf", "puts", "fputs", "fputc",
    "putchar", "fwrite", "fread", "fopen", "fclose", "fflush",
    "open", "close", "read", "write", "pread", "pwrite", "lseek",
    "recv", "send", "recvfrom", "sendto", "accept", "accept4",
    "socket", "bind", "listen", "connect", "shutdown", "setsockopt",
    "epoll_wait", "epoll_ctl", "epoll_create1", "ioctl", "fcntl",
    "poll", "select", "usleep", "sleep", "nanosleep", "exit", "_exit",
    "abort", "syscall", "system", "fork", "execve", "raise", "kill",
    "pthread_mutex_lock", "pthread_mutex_unlock", "pthread_cond_wait",
    "pthread_cond_signal", "pthread_cond_broadcast", "sem_wait",
    "sem_post", "sem_trywait",
}

# Member spellings that are irrevocable on any receiver.
MUTEX_METHODS = {"lock", "unlock", "try_lock", "lock_shared",
                 "unlock_shared"}
ATOMIC_RMW_METHODS = {"fetch_add", "fetch_sub", "fetch_and", "fetch_or",
                      "fetch_xor", "exchange", "compare_exchange_weak",
                      "compare_exchange_strong", "notify_one",
                      "notify_all"}

# Raw-memory std primitives: fine on private locals (the marshal
# pattern), a TM1 diagnostic on anything shared.
LOCAL_OK_FNS = {
    "memcmp", "memcpy", "memmove", "memset", "strlen", "strncmp",
    "strncpy", "strchr", "snprintf", "isspace", "isdigit", "tolower",
    "toupper", "strtol", "strtoull",
}

# Side-effect-free std utilities, always legal.
PURE_ALWAYS = {
    "move", "forward", "min", "max", "clamp", "swap", "size", "empty",
    "data", "begin", "end", "cbegin", "cend", "get", "tie",
    "make_pair", "make_tuple", "declval", "abs", "countl_zero",
    "countr_zero", "popcount", "bit_cast", "to_underlying", "as_const",
    "distance", "exchange_weak", "hash", "launder", "addressof",
    "char_traits", "numeric_limits", "is_same_v", "front", "back",
    "count", "find", "c_str", "length", "substr", "compare", "value",
    "has_value", "load",
}

# The tm/raw.h escape hatches: any use inside a checked region is TM1.
RAW_ESCAPES = {"rawLoad", "rawLoadAcquire", "rawStore", "rawGet",
               "rawSet"}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}

_CTRL_PARENS = {"if", "while", "for", "switch"}


def _is_macro_like(name):
    return name.isupper() or (name[:1].isupper() and "_" in name
                              and name.upper() == name)


def _is_type_like(name):
    return (name[:1].isupper() or name in _TYPE_STARTERS
            or name.endswith("_t") or name in (
                "string", "string_view", "vector", "array", "span",
                "optional", "pair", "tuple", "atomic", "mutex",
                "unique_ptr", "shared_ptr", "size_t", "ssize_t",
                "uintptr_t", "intptr_t", "ptrdiff_t"))


class _Scope:
    __slots__ = ("serial",)

    def __init__(self, serial=False):
        self.serial = serial


def collect_locals(tokens, lo, hi, seed=()):
    """Map of local names -> 'value' | 'ptr' declared in [lo, hi).

    seed names enter as 'value' (parameters: plain-name writes to them
    are private; deref/arrow writes are still flagged separately).
    """
    locals_ = {name: "value" for name in seed}
    n = min(hi, len(tokens))
    k = lo
    stmt_start = True
    while k < n:
        t = tokens[k]
        if t.kind == "punct":
            if t.text in ("{", "}", ";"):
                stmt_start = True
                k += 1
                continue
            if t.text == "(":
                # for/if/while heads introduce declarations too.
                prev = tokens[k - 1] if k > 0 else None
                if prev is not None and prev.kind == "id" \
                        and prev.text in _CTRL_PARENS:
                    stmt_start = True
                    k += 1
                    continue
            k += 1
            stmt_start = False
            continue
        if not stmt_start or t.kind != "id":
            k += 1
            stmt_start = False
            continue
        # Try to parse a declaration starting at k.
        j = k
        saw_type = False
        is_ptr = False
        last_id = None
        init_root_local = False
        while j < n:
            tj = tokens[j]
            if tj.kind == "id":
                if last_id is not None:
                    saw_type = True
                last_id = tj.text
                j += 1
                continue
            if tj.kind == "punct":
                if tj.text == "::":
                    j += 1
                    last_id = None  # qualifier fragment, not the name
                    saw_type = True
                    continue
                if tj.text == "<":
                    # Skip balanced template args (best effort).
                    depth = 1
                    j += 1
                    while j < n and depth:
                        if tokens[j].text == "<":
                            depth += 1
                        elif tokens[j].text == ">":
                            depth -= 1
                        elif tokens[j].text in (";", "{"):
                            break
                        j += 1
                    saw_type = True
                    continue
                if tj.text in ("*",):
                    is_ptr = True
                    j += 1
                    continue
                if tj.text in ("&", "&&"):
                    is_ptr = True  # references alias — treat as ptr
                    j += 1
                    continue
                if tj.text == "[" and last_id is None:
                    # Structured binding: auto [a, b] = ...
                    close = j
                    depth = 0
                    while close < n:
                        if tokens[close].text == "[":
                            depth += 1
                        elif tokens[close].text == "]":
                            depth -= 1
                            if depth == 0:
                                break
                        close += 1
                    for q in range(j + 1, close):
                        if tokens[q].kind == "id":
                            locals_[tokens[q].text] = "value"
                    j = close + 1
                    last_id = "\x00bound"
                    continue
                break
            break
        if last_id is None or last_id == "\x00bound" or not saw_type:
            k += 1
            stmt_start = False
            continue
        tj = tokens[j] if j < n else None
        if tj is None or tj.kind != "punct" or tj.text not in (
                "=", ";", "{", "[", "(", ",", ":"):
            k += 1
            stmt_start = False
            continue
        first = tokens[k].text
        if first in _KEYWORDS_NOT_CALLS or _is_macro_like(first) \
                and tj.text == "(":
            k += 1
            stmt_start = False
            continue
        kind = "ptr" if is_ptr else "value"
        if tj.text == "[":
            kind = "value"  # local array storage
        if tj.text == "=" and is_ptr:
            # Pointer initialized from a local? Then it stays private.
            q = j + 1
            while q < n and tokens[q].kind == "punct" \
                    and tokens[q].text in ("&", "*", "("):
                q += 1
            if q < n and tokens[q].kind == "id" \
                    and tokens[q].text in locals_:
                init_root_local = True
        if init_root_local:
            kind = locals_.get("", kind) or kind
            kind = "value"
        locals_[last_id] = kind
        # Multi-declarator lists: a, b, c — pick up further names.
        while j < n and tokens[j].text == ",":
            j += 1
            nxt = tokens[j] if j < n else None
            if nxt is not None and nxt.kind == "id":
                locals_[nxt.text] = kind
                j += 1
            else:
                break
        # Resume AT the terminator so ';' re-arms stmt_start in the
        # main loop (k = j + 1 would silently swallow it and the next
        # declaration would be missed).
        k = j
        stmt_start = False
    return locals_


class Checker:
    """Applies TM1-TM4 to the checked surface of a Project."""

    def __init__(self, project, infer=True, trusted=("src/tm/",),
                 check_paths=None):
        self.project = project
        self.infer = infer
        self.trusted = tuple(trusted)
        self.check_paths = set(check_paths) if check_paths else None
        self.diags = []
        self._memo = {}
        self._in_progress = set()

    # -- helpers -------------------------------------------------------

    def _is_trusted(self, path):
        p = path.replace("\\", "/")
        return any(t in p for t in self.trusted)

    def _checkable(self, sf):
        if self._is_trusted(sf.path):
            return False
        if self.check_paths is not None and sf.path not in self.check_paths:
            return False
        return True

    def _waived_lines(self, sf, names=("tm-captured", "tm-pure-local")):
        out = set()
        for m in sf.markers:
            if m.name in names:
                out.update((m.line, m.line + 1, m.line + 2))
        return out

    def _annotation_of(self, name):
        anns = self.project.annotation_index.get(name)
        if not anns:
            return None
        if len(anns) == 1:
            return next(iter(anns))
        # Conflicting annotations across overloads: pick the weakest
        # (callable) so explicit-atomic callers still get a TM2.
        for a in ("unsafe", "callable", "safe", "pure"):
            if a in anns:
                return a
        return None

    def _visible_body(self, name):
        for sf, fn in self.project.bodies.get(name, ()):
            if not self._is_trusted(sf.path):
                return sf, fn
        if self.project.bodies.get(name):
            return None, "trusted"
        return None, None

    def _skip_ranges(self, sf, lo, hi):
        """Sub-ranges of [lo, hi) checked elsewhere: nested regions
        and handler bodies."""
        out = []
        for r in sf.regions:
            if lo < r.body[0] and r.body[1] <= hi:
                out.append(r.body)
        for h in sf.handlers:
            if lo <= h.body[0] and h.body[1] <= hi:
                out.append(h.body)
        return out

    def _report(self, sf, line, rule, msg, waived):
        if line in waived:
            return
        self.diags.append(Diagnostic(sf.path, line, rule, msg))

    # -- entry points --------------------------------------------------

    def run(self):
        for sf in self.project.files:
            if not self._checkable(sf):
                continue
            for region in sf.regions:
                self._check_region(sf, region)
            for h in sf.handlers:
                self._check_handler(sf, h)
            for fn in sf.functions:
                if fn.annotation == "safe":
                    self._check_body(sf, fn.body, "atomic",
                                     seed=fn.params,
                                     what=f"TM_SAFE {fn.name}")
                elif fn.annotation == "callable":
                    self._check_body(sf, fn.body, "relaxed",
                                     seed=fn.params,
                                     what=f"TM_CALLABLE {fn.name}")
                elif fn.annotation == "pure":
                    self._check_body(sf, fn.body, "pure",
                                     seed=fn.params,
                                     what=f"TM_PURE {fn.name}")
        return self.diags

    def _check_region(self, sf, region):
        mode = {"atomic": "atomic", "relaxed": "relaxed"}.get(
            region.kind, "unknown")
        encl = None
        for fn in sf.functions:
            if fn.body[0] <= region.body[0] and region.body[1] <= fn.body[1]:
                encl = fn
                break
        seed = list(region.params) + list(region.outer_params)
        if encl is not None:
            seed += list(
                collect_locals(sf.tokens, encl.body[0], encl.body[1],
                               seed=encl.params).keys())
        self._check_body(sf, region.body, mode, seed=seed,
                         what=f"{region.entry} body")

    def _check_handler(self, sf, h):
        waived = self._waived_lines(sf)
        tokens = sf.tokens
        lo, hi = h.body
        txnames = set(h.txdesc_names)
        for k in range(lo, min(hi, len(tokens))):
            t = tokens[k]
            if t.kind != "id":
                continue
            nxt = tokens[k + 1] if k + 1 < len(tokens) else None
            is_call = nxt is not None and nxt.kind == "punct" \
                and nxt.text == "("
            if t.text in TM_API and is_call:
                self._report(
                    sf, t.line, "TM4",
                    f"{h.which} handler calls tm API '{t.text}': "
                    "handlers run outside the transaction and must be "
                    "TM_PURE-clean", waived)
            elif t.text in txnames:
                self._report(
                    sf, t.line, "TM4",
                    f"{h.which} handler uses TxDesc '{t.text}': the "
                    "descriptor is dead by the time handlers run",
                    waived)

    # -- body scanner --------------------------------------------------

    def _check_body(self, sf, body, mode, seed=(), what=""):
        tokens = sf.tokens
        lo, hi = body
        hi = min(hi, len(tokens))
        if lo >= hi:
            return
        waived = self._waived_lines(sf)
        if mode == "pure":
            # TM_PURE bodies are trusted, not descended into: the only
            # thing forbidden inside is use of the transactional API
            # (a pure function must be meaningful outside any txn).
            for k in range(lo, hi):
                t = tokens[k]
                if t.kind == "id" and t.text in TM_API \
                        and k + 1 < hi and tokens[k + 1].kind == "punct" \
                        and tokens[k + 1].text == "(":
                    self._report(
                        sf, t.line, "TM2",
                        f"TM_PURE body ({what}) calls tm API "
                        f"'{t.text}': pure functions must be "
                        "meaningful outside any transaction", waived)
            return
        locals_ = collect_locals(tokens, lo, hi, seed=seed)
        skips = self._skip_ranges(sf, lo, hi)
        scopes = [_Scope()]

        def skipped(idx):
            return any(a <= idx < b for a, b in skips)

        k = lo
        while k < hi:
            if skipped(k):
                k += 1
                continue
            t = tokens[k]
            if t.kind == "punct":
                if t.text == "{":
                    scopes.append(_Scope(serial=scopes[-1].serial))
                elif t.text == "}":
                    if len(scopes) > 1:
                        scopes.pop()
                elif t.text in ASSIGN_OPS:
                    self._check_assignment(sf, tokens, k, lo, locals_,
                                           mode, scopes[-1].serial,
                                           waived)
                elif t.text in ("++", "--"):
                    self._check_incdec(sf, tokens, k, lo, hi, locals_,
                                       mode, scopes[-1].serial, waived)
                k += 1
                continue
            if t.kind != "id":
                k += 1
                continue
            nxt = tokens[k + 1] if k + 1 < hi else None
            if t.text == "unsafeOp" and nxt is not None \
                    and nxt.text == "(":
                scopes[-1].serial = True
                k = match_paren(tokens, k + 1) + 1
                continue
            if t.text in ("new", "delete"):
                self._irrevocable(sf, t.line, mode, scopes[-1].serial,
                                  f"raw '{t.text}' (use tm::txMalloc / "
                                  "tm::txFree)", waived)
                k += 1
                continue
            if nxt is not None and nxt.kind == "punct" \
                    and nxt.text == "(":
                self._check_call(sf, tokens, k, mode, locals_,
                                 scopes[-1].serial, waived, what)
            k += 1

    # -- writes --------------------------------------------------------

    def _lhs_root(self, tokens, eq_idx, lo):
        """Walk the LHS expression ending just before tokens[eq_idx].

        Returns (root_name_or_None, form) with form in
        {'plain','dot','arrow','index','deref','call','none'}.
        """
        k = eq_idx - 1
        form = "plain"
        root = None
        guard = 0
        while k >= lo and guard < 64:
            guard += 1
            t = tokens[k]
            if t.kind == "punct" and t.text == "]":
                depth = 0
                while k >= lo:
                    if tokens[k].text == "]":
                        depth += 1
                    elif tokens[k].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if form == "plain":
                    form = "index"
                k -= 1
                continue
            if t.kind == "punct" and t.text == ")":
                depth = 0
                while k >= lo:
                    if tokens[k].text == ")":
                        depth += 1
                    elif tokens[k].text == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                form = "call"
                k -= 1
                continue
            if t.kind == "id":
                root = t.text
                prev = tokens[k - 1] if k - 1 >= lo else None
                if prev is not None and prev.kind == "punct":
                    if prev.text == ".":
                        if form == "plain":
                            form = "dot"
                        k -= 2
                        continue
                    if prev.text == "->":
                        form = "arrow"
                        k -= 2
                        continue
                    if prev.text == "::":
                        k -= 2
                        continue
                    if prev.text in ("*", "&", "&&"):
                        # Walk the whole declarator/deref chain: what
                        # precedes it decides. `Item **p = ...` is a
                        # declaration; `**pp = v` is a deref write.
                        q = k - 1
                        while q >= lo and tokens[q].kind == "punct" \
                                and tokens[q].text in ("*", "&", "&&"):
                            q -= 1
                        before = tokens[q] if q >= lo else None
                        if before is None or before.kind != "id" \
                                and not (before.kind == "punct"
                                         and before.text in (">", "::")):
                            form = "deref"
                return root, form
            if t.kind == "punct" and t.text == "*":
                form = "deref"
                k -= 1
                continue
            break
        return root, form if root is not None else "none"

    def _check_assignment(self, sf, tokens, eq_idx, lo, locals_, mode,
                          serial, waived):
        prev = tokens[eq_idx - 1] if eq_idx > lo else None
        if prev is None or not (
                prev.kind == "id"
                or (prev.kind == "punct" and prev.text in (")", "]"))):
            return
        root, form = self._lhs_root(tokens, eq_idx, lo)
        if root is None or form in ("none", "call"):
            return
        line = tokens[eq_idx].line
        kind = locals_.get(root)
        if form == "deref" or form == "arrow":
            if serial:
                return
            # Writing through any pointer bypasses instrumentation —
            # captured-memory writes carry a tm-captured waiver.
            self._raw_write(sf, line, mode,
                            f"write through pointer '{root}' "
                            f"({form}) bypasses TxDesc instrumentation",
                            waived)
            return
        if kind == "value":
            return  # private local / parameter
        if kind == "ptr" and form in ("index",):
            if serial:
                return
            self._raw_write(sf, line, mode,
                            f"indexed write through pointer '{root}' "
                            "bypasses TxDesc instrumentation", waived)
            return
        if kind is None:
            if serial:
                return
            if _is_macro_like(root) or root in ("errno",):
                return
            self._raw_write(sf, line, mode,
                            f"write to non-local '{root}' bypasses "
                            "TxDesc instrumentation", waived)

    def _check_incdec(self, sf, tokens, op_idx, lo, hi, locals_, mode,
                      serial, waived):
        # Postfix: LHS ends right before op. Prefix: operand follows.
        prev = tokens[op_idx - 1] if op_idx > lo else None
        nxt = tokens[op_idx + 1] if op_idx + 1 < hi else None
        root = form = None
        if prev is not None and (prev.kind == "id" or
                                 (prev.kind == "punct"
                                  and prev.text in (")", "]"))):
            root, form = self._lhs_root(tokens, op_idx, lo)
        elif nxt is not None and nxt.kind == "id":
            root, form = nxt.text, "plain"
            j = op_idx + 2
            while j < hi and tokens[j].kind == "punct" \
                    and tokens[j].text in (".", "->", "::"):
                if tokens[j].text == "->":
                    form = "arrow"
                j += 2
        if root is None or serial:
            return
        kind = locals_.get(root)
        line = tokens[op_idx].line
        if form in ("deref", "arrow"):
            self._raw_write(sf, line, mode,
                            f"increment through pointer '{root}' "
                            "bypasses TxDesc instrumentation", waived)
        elif kind is None and form == "plain" \
                and not _is_macro_like(root):
            self._raw_write(sf, line, mode,
                            f"increment of non-local '{root}' bypasses "
                            "TxDesc instrumentation", waived)

    def _raw_write(self, sf, line, mode, msg, waived):
        if mode == "relaxed":
            # Relaxed bodies still need instrumentation for isolation,
            # but TM_CALLABLE code is allowed branch-staged raw paths;
            # those sit behind unsafeOp (serial) or carry waivers.
            self._report(sf, line, "TM1", msg, waived)
        else:
            self._report(sf, line, "TM1", msg, waived)

    # -- calls ---------------------------------------------------------

    def _irrevocable(self, sf, line, mode, serial, msg, waived):
        if mode == "relaxed" or serial:
            return
        self._report(
            sf, line, "TM3",
            msg + " is irrevocable: legal only in a relaxed "
            "transaction or after an unsafeOp() in-flight switch",
            waived)

    def _args_all_local(self, tokens, open_idx, locals_):
        close = match_paren(tokens, open_idx)
        for k in range(open_idx + 1, close):
            t = tokens[k]
            if t.kind == "id":
                if t.text in locals_ or _is_macro_like(t.text) \
                        or _is_type_like(t.text) or t.text in (
                            "sizeof", "std", "nullptr", "true", "false"):
                    continue
                nxt = tokens[k + 1] if k + 1 < len(tokens) else None
                if nxt is not None and nxt.kind == "punct" \
                        and nxt.text == "::":
                    continue
                return False
        return True

    def _check_call(self, sf, tokens, name_idx, mode, locals_, serial,
                    waived, what):
        name = tokens[name_idx].text
        line = tokens[name_idx].line
        open_idx = name_idx + 1
        prev = tokens[name_idx - 1] if name_idx > 0 else None
        is_member = prev is not None and prev.kind == "punct" \
            and prev.text in (".", "->")
        receiver = None
        if is_member and name_idx >= 2 \
                and tokens[name_idx - 2].kind == "id":
            receiver = tokens[name_idx - 2].text

        if name in _KEYWORDS_NOT_CALLS:
            return
        if name in RAW_ESCAPES:
            self._report(
                sf, line, "TM1",
                f"'{name}' is a tm/raw.h escape hatch: checked "
                "transaction bodies must use TxDesc instrumentation",
                waived)
            return
        if name in TM_API or (receiver is not None
                              and receiver in ("tm", "strict")):
            if name in TM_API:
                return
        if is_member:
            if name in MUTEX_METHODS:
                self._irrevocable(sf, line, mode, serial,
                                  f"mutex operation '.{name}()'", waived)
                return
            if name in ATOMIC_RMW_METHODS:
                self._irrevocable(sf, line, mode, serial,
                                  f"atomic RMW '.{name}()'", waived)
                return
            if name in TX_METHODS:
                return
            ann = self._annotation_of(name)
            if ann in ("safe", "pure"):
                return
            if ann == "callable":
                if mode == "atomic":
                    self._report(
                        sf, line, "TM2",
                        f"TM_CALLABLE '{name}' called from an "
                        "explicitly atomic body: atomic code may only "
                        "call TM_SAFE / TM_PURE functions", waived)
                return
            if ann == "unsafe":
                self._irrevocable(sf, line, mode, serial,
                                  f"TM_UNSAFE call '{name}'", waived)
                return
            if name in PURE_ALWAYS:
                return
            # Unresolvable member call (template context, std type):
            # inferred callable-safe unless inference is disabled —
            # the RuntimeCfg::inferCallableSafety analogue.
            if not self.infer and mode in ("atomic", "unknown"):
                self._report(
                    sf, line, "TM2",
                    f"member call '{name}' cannot be resolved and "
                    "safety inference is disabled (--no-infer)", waived)
            return

        # Free (possibly qualified) call.
        if name in IRREVOCABLE_CALLS and name not in LOCAL_OK_FNS:
            self._irrevocable(sf, line, mode, serial,
                              f"call to '{name}'", waived)
            return
        ann = self._annotation_of(name)
        if ann in ("safe", "pure"):
            return
        if ann == "callable":
            if mode == "atomic":
                self._report(
                    sf, line, "TM2",
                    f"TM_CALLABLE '{name}' called from an explicitly "
                    "atomic body: atomic code may only call TM_SAFE / "
                    "TM_PURE functions", waived)
            return
        if ann == "unsafe":
            self._irrevocable(sf, line, mode, serial,
                              f"TM_UNSAFE call '{name}'", waived)
            return
        if name in LOCAL_OK_FNS:
            if self._args_all_local(tokens, open_idx, locals_):
                return
            if mode == "relaxed" or serial:
                return
            self._report(
                sf, line, "TM1",
                f"'{name}' on possibly-shared memory bypasses TxDesc "
                "instrumentation (private stack copies are exempt)",
                waived)
            return
        if name in PURE_ALWAYS or _is_macro_like(name) \
                or _is_type_like(name):
            return
        if name in locals_:
            return  # callable object / template parameter
        # Unannotated with a visible body: close over it the way the
        # compiler's safety inference would.
        bsf, bfn = self._visible_body(name)
        if bsf is not None:
            sub = self._closure_check(bsf, bfn, mode)
            if sub:
                d = sub[0]
                self._report(
                    sf, line, "TM2",
                    f"call to unannotated '{name}' whose body is not "
                    f"transaction-safe ({d.file}:{d.line}: {d.msg})",
                    waived)
            return
        if bfn == "trusted":
            return  # body lives in the runtime's trusted core
        if mode == "atomic" or (mode == "unknown" and not self.infer):
            self._report(
                sf, line, "TM2",
                f"call to '{name}' does not resolve to a TM_SAFE / "
                "TM_PURE function and no body is visible to infer "
                "safety from", waived)

    def _closure_check(self, sf, fn, mode):
        key = (sf.path, fn.name, fn.body[0], mode)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            return []
        self._in_progress.add(key)
        saved = self.diags
        self.diags = []
        try:
            self._check_body(sf, fn.body, mode, seed=fn.params,
                             what=f"closure of {fn.name}")
            result = self.diags
        finally:
            self.diags = saved
            self._in_progress.discard(key)
        self._memo[key] = result
        return result
