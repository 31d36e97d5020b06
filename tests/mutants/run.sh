#!/usr/bin/env bash
# Re-runs the mutation checks: every row of a list under tests/mutants/
# is one mutant, applied alone to a scratch copy of the working tree, and
# its test target must then fail.
#
#   tests/mutants/run.sh [list ...]     # default: tests/mutants/*.txt
#
# A row is four tab-separated fields, then an optional fifth:
#
#   file  original  replacement  cargo-test-args  [equivalent: reason]
#
# `original` must occur exactly once in `file`; `\n` in it or in
# `replacement` stands for a newline. The target runs as
# `cargo test --release -q --offline <cargo-test-args>`. A row marked
# `equivalent` is expected to survive and is only reported. Lines that
# are blank or start with `#` are skipped.
#
# Exits 1 if a mutant survives, does not build, or a row's original
# text no longer matches (a refactor must update the list with the
# code). The copy and its build live under $TMPDIR/traxtent-mutants
# (/tmp when TMPDIR is unset); the build is reused between runs.
set -uo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
work=${TMPDIR:-/tmp}/traxtent-mutants
tree=$work/tree
mkdir -p "$work"
rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard | xargs -0 tar cf - 2>/dev/null) | tar xf - -C "$tree"
export CARGO_TARGET_DIR=$work/target

# Applies one replacement in place; exits 3 unless `original` occurs once.
apply() {
    ORIG=$2 REPL=$3 perl -0777 -i -pe '
        BEGIN { ($o, $r) = map { s/\\n/\n/gr } @ENV{qw(ORIG REPL)} }
        $n = () = /\Q$o\E/g;
        if ($n != 1) { print STDERR "found $n times\n"; exit 3 }
        s/\Q$o\E/$r/;
    ' "$1"
}

lists=("$@")
[ ${#lists[@]} -gt 0 ] || lists=("$root"/tests/mutants/*.txt)
killed=0 survived=0 stale=0 equivalent=0
for list in "${lists[@]}"; do
    while IFS= read -r row || [ -n "$row" ]; do
        case $row in '' | '#'*) continue ;; esac
        file=$(cut -f1 <<<"$row")
        original=$(cut -f2 <<<"$row")
        replacement=$(cut -f3 <<<"$row")
        target=$(cut -f4 <<<"$row")
        note=$(cut -f5 <<<"$row")
        what="$file: $original"
        cp "$tree/$file" "$work/saved"
        if ! apply "$tree/$file" "$original" "$replacement"; then
            echo "STALE     $what"
            stale=$((stale + 1))
            continue
        fi
        # A mutant that does not build is a broken row, not a kill.
        # shellcheck disable=SC2086
        if ! (cd "$tree" && cargo test --release -q --offline --no-run $target >"$work/last.log" 2>&1); then
            echo "UNBUILT   $what"
            stale=$((stale + 1))
        elif (cd "$tree" && cargo test --release -q --offline $target >"$work/last.log" 2>&1); then
            if [[ $note == equivalent* ]]; then
                echo "EQUIVALENT $what ($note)"
                equivalent=$((equivalent + 1))
            else
                echo "SURVIVED  $what -> $replacement [$target]"
                survived=$((survived + 1))
            fi
        else
            echo "killed    $what"
            killed=$((killed + 1))
        fi
        cp "$work/saved" "$tree/$file"
    done <"$list"
done
echo "$killed killed, $survived survived, $stale stale, $equivalent equivalent"
[ $survived -eq 0 ] && [ $stale -eq 0 ]
