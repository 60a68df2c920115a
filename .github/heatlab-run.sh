#!/usr/bin/env bash
# heatlab-run.sh NAME STATUSES ARGS...
# Runs `heatlab ARGS --out-dir ci/NAME` from the src/ beside this script's
# directory, for at most 60 s, keeps its stderr in ci/NAME.err and shows
# it. Fails, naming the run, unless the exit status is one of the
# comma-separated STATUSES and the stderr holds no Traceback and no
# RuntimeWarning.
set -u
name=$1 statuses=$2
shift 2
mkdir -p ci
status=0
timeout 60 env PYTHONPATH="$(dirname "$0")/../src" python -m heatlab.cli \
  "$@" --out-dir "ci/$name" 2> "ci/$name.err" || status=$?
cat "ci/$name.err"
case ",$statuses," in
  *",$status,"*) ;;
  *) echo "$name: exit status $status, want one of $statuses" >&2; exit 1 ;;
esac
if grep -q -e Traceback -e RuntimeWarning "ci/$name.err"; then
  echo "$name: a Traceback or RuntimeWarning on stderr" >&2; exit 1
fi
