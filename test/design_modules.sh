#!/usr/bin/env bash
# Every module DESIGN.md's module table names has a source file: a row
#   | System | `mirror_x` (lib/x) | `Foo` (notes), `Bar_baz`, ... |
# needs lib/x/foo.ml and lib/x/bar_baz.ml beside DESIGN.md.
# Usage: design_modules.sh DESIGN.md
set -euo pipefail
design=$1
root=$(dirname "$design")
rows=0
missing=0
while IFS= read -r row; do
  rows=$((rows + 1))
  dir=$(grep -o '(lib/[a-z_]*)' <<<"$row" | head -1 | tr -d '()')
  # the Modules column only; a capitalised backquoted word is a module
  for m in $(awk -F'|' '{ print $4 }' <<<"$row" | grep -o '`[A-Z][A-Za-z0-9_]*`' | tr -d '`'); do
    file="$dir/${m,}.ml"
    if [ ! -f "$root/$file" ]; then
      echo "DESIGN.md names module $m, but $file does not exist"
      missing=$((missing + 1))
    fi
  done
done < <(grep -E '^\|[^|]*\| `mirror_[a-z_]+` \(lib/[a-z_]+\) \|' "$design")
if [ "$rows" -eq 0 ]; then
  echo "DESIGN.md has no module table rows of the form | System | \`mirror_x\` (lib/x) | Modules |"
  exit 1
fi
[ "$missing" -eq 0 ]
