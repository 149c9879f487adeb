#!/usr/bin/env bash
# Documentation checks run by the CI docs job (and locally):
#  1. markdown lint basics over docs/ and README.md: no trailing
#     whitespace, no hard tabs, every file ends with a newline;
#  2. every src/<module>/ directory is mentioned in docs/ARCHITECTURE.md;
#  3. every bench binary is mentioned in docs/EXPERIMENTS.md;
#  4. the `--flag`s src/engine/cli.cpp parses and the rows of
#     docs/EXPERIMENTS.md's "Shared CLI flags" table name the same set.
set -u
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }

md_files=(README.md docs/*.md)

for f in "${md_files[@]}"; do
    [ -f "$f" ] || { err "missing markdown file $f"; continue; }
    if grep -nE ' +$' "$f" >/dev/null; then
        err "$f has trailing whitespace:"
        grep -nE ' +$' "$f" | head -5 >&2
    fi
    if grep -nP '\t' "$f" >/dev/null; then
        err "$f contains hard tabs:"
        grep -nP '\t' "$f" | head -5 >&2
    fi
    if [ -n "$(tail -c 1 "$f")" ]; then
        err "$f does not end with a newline"
    fi
done

for d in src/*/; do
    mod=$(basename "$d")
    if ! grep -q "$mod" docs/ARCHITECTURE.md; then
        err "src/$mod is not mentioned in docs/ARCHITECTURE.md"
    fi
done

for b in bench/*.cpp; do
    name=$(basename "$b" .cpp)
    if ! grep -q "$name" docs/EXPERIMENTS.md; then
        err "$name is not mentioned in docs/EXPERIMENTS.md"
    fi
done

# Flags the shared parser accepts: its `a == "--flag"` comparisons.
cli_flags=$(grep -oE 'a == "--[a-z0-9-]+"' src/engine/cli.cpp |
            grep -oE -- '--[a-z0-9-]+' | sort -u)
# Flags the table documents: the first cell of each row of the
# "## Shared CLI flags" section (up to the next heading).
doc_flags=$(awk '/^## Shared CLI flags/ {on = 1; next}
                 /^#/ {on = 0}
                 on && /^\| `--/ {split($0, c, "|"); print c[2]}' \
                docs/EXPERIMENTS.md |
            grep -oE -- '--[a-z0-9-]+' | sort -u)
[ -n "$cli_flags" ] || err "no flags found in src/engine/cli.cpp"
[ -n "$doc_flags" ] || err "no Shared CLI flags table in docs/EXPERIMENTS.md"
for f in $(comm -23 <(echo "$cli_flags") <(echo "$doc_flags")); do
    err "$f is parsed in src/engine/cli.cpp but missing from the" \
        "Shared CLI flags table in docs/EXPERIMENTS.md"
done
for f in $(comm -13 <(echo "$cli_flags") <(echo "$doc_flags")); do
    err "$f is in the Shared CLI flags table of docs/EXPERIMENTS.md" \
        "but src/engine/cli.cpp does not parse it"
done

if [ "$fail" -eq 0 ]; then
    echo "check_docs: OK"
fi
exit "$fail"
