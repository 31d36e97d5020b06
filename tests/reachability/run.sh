#!/usr/bin/env bash
# The compiler's reachability check: which public functions and trait
# impls of crates/*/src does no production build need?
#
#   tests/reachability/run.sh
#
# On a scratch copy of the working tree it renames every non-test
# `pub fn` in crates/*/src and puts `#[cfg(any())]` on every trait impl
# there, except impls of Drop, Default, Error, Iterator, Deref and of
# the workspace's own traits (derived impls are not touched). It then
# runs
#
#   cargo check --offline --workspace --lib --bins
#   cargo check --offline --manifest-path benchmark/Cargo.toml --bins
#
# and restores each function or impl that an error names, matched by
# type and name (an impl by its type and trait), until both pass. What is
# still renamed or cut is a survivor: nothing in a library, a binary or
# the benchmark needs it. Each survivor must have a row in
# tests/reachability/allowlist.txt, which
# tests/integration.rs::every_public_item_has_a_production_caller reads
# too. A row is `Type::name` (a free function is `module::name`, an
# impl `Type::Trait`) and a reason. Exits 1 on a survivor without a row
# or on a function row that exempts nothing, 2 if an error names nothing
# this script cut.
#
# The copy and its builds live under $TMPDIR/traxtent-reachability (/tmp
# when TMPDIR is unset) and are reused between runs; the working tree,
# benchmark/Cargo.lock included, is never written.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
work=${TMPDIR:-/tmp}/traxtent-reachability
tree=$work/tree
mkdir -p "$work"
rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard | xargs -0 tar cf - 2>/dev/null) | tar xf - -C "$tree"

exec python3 - "$tree" "$work" "$root/tests/reachability/allowlist.txt" <<'EOF'
import json, os, re, subprocess, sys, time
from pathlib import Path

tree, work, allowlist = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
KEPT_TRAITS = {"Drop", "Default", "Error", "Iterator", "Deref"}
OPERATORS = {  # what an error says instead of the operator trait's name
    "Add": ("cannot add ", "`+`"), "Sub": ("cannot subtract ", "`-`"),
    "Mul": ("cannot multiply ", "`*`"), "Div": ("cannot divide ", "`/`"),
    "Rem": ("remainder", "`%`"), "AddAssign": ("`+=`",), "SubAssign": ("`-=`",),
    "MulAssign": ("`*=`",), "DivAssign": ("`/=`",), "Neg": ("`-`",),
    "Sum": ("summing",), "Product": ("multiplying",),
    "PartialEq": ("can't compare", "`==`"), "PartialOrd": ("can't compare", "`<`", "`>`"),
}


def masked(src):
    """`src` with comments and string/char literals blanked, same length."""
    out, i, n = list(src), 0, len(src)
    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "
    while i < n:
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
        elif src.startswith("/*", i):
            j = src.index("*/", i) + 2
        elif m := re.match(r'b?r(#*)"', src[i:i + 8]):
            j = src.index('"' + m.group(1), i + len(m.group(0))) + 1 + len(m.group(1))
        elif src[i] == '"':
            j = i + 1
            while src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
        elif m := re.match(r"'(\\.[^']*|[^\\'])'", src[i:i + 12]):
            j = i + len(m.group(0))
        else:
            i += 1
            continue
        blank(i, j)
        i = j
    return "".join(out)


def close(text, at):
    """Index just past the item starting at `at`: its `;` or closing `}`."""
    depth = 0
    for j in range(at, len(text)):
        c = text[j]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return j + 1
        elif c == ";" and depth == 0:
            return j + 1
    raise ValueError("unclosed item")


def idents(s):
    return re.findall(r"[A-Za-z_]\w*", s)


def base(ty):
    """The type (or trait) a header names: last path segment before `<`."""
    ty = re.sub(r"<.*", "", ty.replace("&", " ").replace("mut ", " ").replace("dyn ", " "), flags=re.S)
    words = idents(ty)
    return words[-1] if words else ty.strip()


def split_header(h):
    """(trait or None, type) of an impl header `impl<..> Tr for Ty where ..`,
    read with everything inside `<>` blanked."""
    h = re.sub(r"^\s*(unsafe\s+)?impl\s*", "", h)
    depth, top = 0, []
    for c in h:
        depth += c == "<"
        if depth == 0:
            top.append(c)
        else:
            top.append(" ")
        depth -= c == ">" and depth > 0
    top = re.split(r"\bwhere\b", "".join(top))[0]
    m = re.search(r"\bfor\b", top)
    if m:
        return base(top[: m.start()]), base(top[m.end():])
    return None, base(top)


class Item:
    def __init__(self, path, at, kind, ty, name):
        self.path, self.at, self.kind, self.ty, self.name = path, at, kind, ty, name

    def key(self):
        return f"{self.ty}::{self.name}"

    def show(self):
        rel = self.path.relative_to(tree)
        line = self.source_line
        if self.kind == "impl":
            return f"{rel}:{line}: impl {self.name} for {self.ty}"
        return f"{rel}:{line}: {self.key()}"


sources = sorted(tree.glob("crates/*/src/**/*.rs"))
originals = {p: p.read_text() for p in sources}
own_traits = set()
for p, src in originals.items():
    own_traits.update(re.findall(r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:unsafe\s+)?trait\s+(\w+)", masked(src), re.M))

items = []
for p, src in originals.items():
    text = masked(src)
    tests = [(m.start(), close(text, m.end())) for m in re.finditer(r"#\[cfg\(test\)\]", text)]
    live = lambda at: not any(a <= at < b for a, b in tests)
    module = p.parent.name if p.stem in ("lib", "mod", "main") else p.stem
    if p.stem == "lib":
        module = p.parent.parent.name.replace("-", "_")
    impls = []
    for m in re.finditer(r"^[ \t]*(?:unsafe\s+)?impl\b", text, re.M):
        if not live(m.start()):
            continue
        brace = text.index("{", m.end())
        trait, ty = split_header(text[m.start():brace])
        impls.append((m.start(), close(text, m.start()), ty))
        if trait is not None and trait not in KEPT_TRAITS and trait not in own_traits:
            start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
            items.append(Item(p, start, "impl", ty, trait))
    for m in re.finditer(r"\bpub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*fn\s+([A-Za-z_]\w*)", text):
        if not live(m.start()):
            continue
        inside = [i for i in impls if i[0] < m.start() < i[1]]
        ty = max(inside)[2] if inside else module
        items.append(Item(p, m.start(1), "fn", ty, m.group(1)))
        items[-1].free = not inside
for it in items:
    it.source_line = originals[it.path].count("\n", 0, it.at) + 1

SUFFIX = "_cut_for_reachability"
written = {}


def write(cut):
    for p, src in originals.items():
        edits = sorted((it for it in cut if it.path == p), key=lambda it: it.at, reverse=True)
        for it in edits:
            if it.kind == "fn":
                end = it.at + len(it.name)
                src = src[:end] + SUFFIX + src[end:]
            else:
                src = src[: it.at] + "#[cfg(any())] " + src[it.at:]
        if written.get(p) != src:
            p.write_text(src)
            written[p] = src


def check(args, target):
    # A trait method that delegates to its type's renamed namesake now
    # calls itself: the recursion lint names it.
    env = dict(os.environ, CARGO_TARGET_DIR=str(work / target), RUSTFLAGS="-D unconditional_recursion")
    run = subprocess.run(["cargo", "check", "--offline", "-q", "--message-format=json", *args],
                         cwd=tree, env=env, capture_output=True, text=True)
    errors = []
    for line in run.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if msg.get("reason") == "compiler-message" and msg["message"]["level"] == "error":
            errors.append(msg["message"])
    if run.returncode != 0 and not errors:
        sys.exit(f"cargo check {' '.join(args)} failed without a compiler error:\n{run.stderr}")
    return errors


def text_of(err):
    parts = [err["message"]] + [c["message"] for c in err.get("children", [])]
    parts += [s.get("label") or "" for s in err.get("spans", [])]
    return "\n".join(parts)


def named(err, cut):
    """The cut items an error names: a function by the identifier under the
    error and, where the message names the type, by that type; an impl
    by its type and its trait (or the operator it provides)."""
    full = text_of(err)
    words = {w for q in re.findall(r"`([^`]*)`", full) for w in idents(q)}
    hit = set()
    for span in err.get("spans", []):
        if not span["is_primary"] or not span["text"]:
            continue
        line = span["text"][0]
        under = idents(line["text"][line["highlight_start"] - 1 : line["highlight_end"] - 1])
        name = under[under.index("fn") + 1] if "fn" in under[:-1] else under[-1] if under else None
        fns = [it for it in cut if it.kind == "fn" and it.name == name]
        typed = [it for it in fns if it.ty in words]
        hit.update(typed or [it for it in fns if it.free] or fns)
    for it in cut:
        if it.kind == "impl" and it.ty in words and (
                it.name in words or any(s in full for s in OPERATORS.get(it.name, ()))):
            hit.add(it)
    return hit


started = time.time()
cut, rounds = set(items), 0
for args, target in ((["--workspace", "--lib", "--bins"], "target"),
                     (["--manifest-path", "benchmark/Cargo.toml", "--bins"], "target-bench")):
    while True:
        rounds += 1
        write(cut)
        errors = check(args, target)
        if not errors:
            break
        back = set().union(*(named(e, cut) for e in errors))
        if not back:
            print("errors that name nothing this check cut:", file=sys.stderr)
            for e in errors:
                print(e.get("rendered") or e["message"], file=sys.stderr)
            sys.exit(2)
        cut -= back

rows = {}
for n, line in enumerate(allowlist.read_text().splitlines(), 1):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    key, _, reason = line.partition(" ")
    if not reason.strip():
        sys.exit(f"{allowlist}:{n}: a row is `Type::name` and a reason")
    rows[key] = n
if len(rows) > 25:
    sys.exit(f"{len(rows)} allowlist rows: the allowlist is short or it is not an allowlist")

survivors = sorted(cut, key=lambda it: (str(it.path), it.at))
print(f"{len(items)} items cut, {len(survivors)} survive, {rounds} rounds, {time.time() - started:.0f} s")
status = 0
for it in survivors:
    if it.key() in rows:
        print(f"  allowed  {it.show()}")
    else:
        print(f"  NO ROW   {it.show()}")
        status = 1
cut_keys = {it.key() for it in items if it.kind == "fn"}
left = {it.key() for it in survivors}
for key, n in rows.items():
    if key in cut_keys and key not in left:
        print(f"  STALE    allowlist row {n}: {key} has a production caller; delete the row")
        status = 1
    elif key.rpartition("::")[2][:1].islower() and key not in cut_keys:
        print(f"  STALE    allowlist row {n}: {key} names no public function")
        status = 1
fns = sum(it.kind == "fn" for it in survivors)
print(f"{fns} functions and {len(survivors) - fns} impls no production build needs")
sys.exit(status)
EOF
