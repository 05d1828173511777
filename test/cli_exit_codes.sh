#!/usr/bin/env bash
# Pin the exit codes of `mirror_cli daemons health|redeliver|deadletters`
# on both delivery transports (in process and forked workers), and check
# that `--durable DIR` journals on both.
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

# check WANT ARGS... — run in the background, record a mismatch
check() {
  n=$((n + 1))
  (
    want=$1
    shift
    "$cli" "$@" >/dev/null 2>&1
    got=$?
    if [ "$got" != "$want" ]; then
      echo "mirror_cli $*: exit $got, expected $want" >"$tmp/fail.$n"
    fi
  ) &
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

status=0
for f in "$tmp"/fail.*; do
  [ -e "$f" ] || continue
  cat "$f"
  status=1
done
exit $status
