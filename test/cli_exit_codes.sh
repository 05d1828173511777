#!/usr/bin/env bash
# Pin the exit codes of `mirror_cli daemons health|redeliver|deadletters`
# on both delivery transports (in process and forked workers), check
# that `--durable DIR` journals on both, and that the journal is the
# durable store's one log (`deadletters` and `wal status` read it), that
# `lint --db` reads what `.save` wrote and refuses it damaged, that a
# `--durable` session refuses `.load`, and which commands take
# `--domains`.
#
#   usage: cli_exit_codes.sh PATH/TO/mirror_cli.exe
#
# The forked-worker runs with a broken daemon wait out the 30 s message
# deadline on the wall clock, so they run concurrently.
set -u
cli=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
n=0

# run WANT ARGS... — record a mismatch as fail.$n
run() {
  want=$1
  shift
  "$cli" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" != "$want" ]; then
    echo "mirror_cli $*: exit $got, expected $want" >"$tmp/fail.$n"
  fi
}

# check WANT ARGS... — in the background; expect WANT ARGS... — now
check() {
  n=$((n + 1))
  run "$@" &
}
expect() {
  n=$((n + 1))
  run "$@"
}

for procs in 0 2; do
  check 0 daemons health --procs "$procs"
  check 3 daemons health --break annotation-indexer --procs "$procs"
  check 0 daemons redeliver --break annotation-indexer --procs "$procs"
  check 0 daemons redeliver --probe --break annotation-indexer --procs "$procs"
  check 1 daemons deadletters --break annotation-indexer --procs "$procs"
  check 0 daemons health --procs "$procs" --durable "$tmp/journal$procs"
  # the in-process runs are quick; keep at most one transport's batch live
  wait
done

for procs in 0 2; do
  if [ -z "$(ls -A "$tmp/journal$procs" 2>/dev/null)" ]; then
    echo "mirror_cli daemons health --procs $procs --durable DIR: no journal written" \
      >"$tmp/fail.journal$procs"
  fi
done

# One on-disk format: the dead letters a durable run journals are read
# back offline from the same log, which `wal status` accepts.
expect 3 daemons health --break annotation-indexer --procs 0 --durable "$tmp/one"
expect 3 daemons deadletters --durable "$tmp/one"
expect 0 wal status "$tmp/one"

# `.save DIR` writes the snapshot that `lint --db DIR` reads back; with
# one byte of it flipped, the same command refuses the database.
printf 'define T as SET< TUPLE< Atomic<int>: a > >;\ninsert into T tuple(a: 7);\n.save %s\n.quit\n' \
  "$tmp/saved" | "$cli" >/dev/null 2>&1
expect 0 lint --db "$tmp/saved" 'count(T)'
snap=$tmp/saved/snapshot
byte=$(od -An -tu1 -j10 -N1 "$snap" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 64)))" | dd of="$snap" bs=1 seek=10 count=1 conv=notrunc 2>/dev/null
expect 1 lint --db "$tmp/saved" 'count(T)'

# In a `--durable` session `.load` is refused (the loaded database would
# not be journaled): the rows inserted before and after it both survive
# a reopen.
printf 'define U as SET< TUPLE< Atomic<int>: b > >;\n.save %s\n.quit\n' "$tmp/other" \
  | "$cli" >/dev/null 2>&1
printf 'define T as SET< TUPLE< Atomic<int>: a > >;\ninsert into T tuple(a: 1);\n.load %s\ninsert into T tuple(a: 2);\n.quit\n' \
  "$tmp/other" | "$cli" --durable "$tmp/loaded" >"$tmp/load.out" 2>&1
grep -q "error: .load is refused" "$tmp/load.out" \
  || echo "mirror_cli --durable DIR: .load was not refused" >"$tmp/fail.load"
rows=$("$cli" --durable "$tmp/loaded" -e 'count(T);' 2>&1)
[ "$rows" = 2 ] \
  || echo "mirror_cli --durable DIR: reopened T has count $rows, expected 2" >"$tmp/fail.reload"

# --domains sizes the pool of a command that executes a plan; the
# static ones (lint, plain explain) do not take it.
expect 124 lint --domains 2
expect 124 explain --domains 2 'count(R)'
expect 0 explain analyze --domains 2 'count(R)'

status=0
for f in "$tmp"/fail.*; do
  [ -e "$f" ] || continue
  cat "$f"
  status=1
done
exit $status
