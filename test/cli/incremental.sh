#!/bin/sh
# mcheck --incremental --cache over a two-file program must print what a
# cold mcheck prints, with the same exit code: on the run that fills the
# cache, on a warm run, on a warm run after one file is edited, and on
# warm runs after the unit blobs are truncated: one that needs no blob,
# one that needs the damaged blob and parses the file again, and one
# that decodes the repaired blob; and on warm runs inside the lanes
# closure after the blobs are damaged again, where the other file's
# flow graphs are needed, not its unit.  The warm runs must also have
# reused the front end as expected (the -v "front end:" line).
#
#   sh incremental.sh MCHECK TYPES.c HANDLERS.c
set -eu
mcheck=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp "$2" "$work/types.c"
cp "$3" "$work/handlers.c"
cd "$work"

# run LABEL [FLAG...]: stdout and exit code into LABEL.out, stderr into
# LABEL.err
run() {
  label=$1
  shift
  code=0
  "$mcheck" -v "$@" types.c handlers.c >"$label.out" 2>"$label.err" || code=$?
  echo "exit $code" >>"$label.out"
}

# same LABEL REUSE: a cold and a warm run agree, and the warm run's
# front-end line starts with REUSE
same() {
  run cold
  run "$1" --incremental --cache check.cache
  if ! cmp -s cold.out "$1.out"; then
    echo "$1: warm output differs from cold"
    diff cold.out "$1.out" || true
    exit 1
  fi
  if ! grep -q "^front end: $2" "$1.err"; then
    echo "$1: expected 'front end: $2' on stderr, got:"
    grep "^front end:" "$1.err" || true
    exit 1
  fi
}

same fill "0 file(s) reused, 2 parsed"
same warm "2 file(s) reused, 0 parsed (0 blob(s) failed), annotations reused; 0 blob(s) decoded"
printf '\nvoid Extra(void) { word y; y = 2; }\n' >>handlers.c
same edited "1 file(s) reused, 1 parsed"
for blob in check.cache.ast/*; do
  head -c 100 "$blob" >truncated && mv truncated "$blob"
done
# a damaged blob is read only when a unit that runs needs its file
same untouched "2 file(s) reused, 0 parsed (0 blob(s) failed)"
# a new function changes the program's interface, so types.c's
# annotations are redone from its blob
printf '\nvoid Extra2(void) { word y; y = 3; }\n' >>handlers.c
same truncated "0 file(s) reused, 2 parsed (1 blob(s) failed)"
printf '\nvoid Extra3(void) { word y; y = 4; }\n' >>handlers.c
same repaired "1 file(s) reused, 1 parsed (0 blob(s) failed), annotations redone; 1 blob(s) decoded"
# an inert edit to the handler H re-runs the lanes unit, which needs
# types.c's flow graphs and not its unit; the damaged flow-graph blob
# falls back to the unit, whose blob is damaged too, so types.c is
# parsed again and both blobs are stored again
for blob in check.cache.ast/*; do
  printf x >>"$blob"
done
sed 's/w = 1;/w = 1; ;/' handlers.c >edited.c && mv edited.c handlers.c
same lanes_damaged "0 file(s) reused, 2 parsed (1 blob(s) failed), annotations reused; 0 blob(s) decoded; 0 local(s) decoded"
sed 's/w = 1;/w = 1; ;/' handlers.c >edited.c && mv edited.c handlers.c
same lanes_repaired "1 file(s) reused, 1 parsed (0 blob(s) failed), annotations reused; 0 blob(s) decoded; 1 local(s) decoded"
