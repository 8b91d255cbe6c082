#!/usr/bin/env bash
# The CLI checks that every CI job runs, one per argument, in the
# current directory, with `fixedb` on the PATH:
#   threads       a study's CSV bytes at --threads 1 and 2 are the same
#   grid          a grid's rows are its cells' rows, each run alone
#   verify-seeds  verify passes at seeds 0, 2 and 4177
#   configs       a config key the subcommand does not read is checked and
#                 ignored, so the CSV bytes stay; an empty grid exits 2
set -euo pipefail

case "${1:-}" in
  threads)
    for threads in 1 2; do
      fixedb permutation --reps 30 --threads "$threads" --out "perm-$threads.csv"
      fixedb bootstrap --reps 40 --threads "$threads" --out "boot-$threads.csv"
      fixedb subsample --reps 40 --threads "$threads" --out "sub-$threads.csv"
      fixedb bootstrap --setting 2 --d 5 --reps 20 --threads "$threads" --out "boot2-$threads.csv"
      fixedb randomization --reps 40 --threads "$threads" --out "rand-$threads.csv"
      fixedb permutation --m 8 --B 19,39 --alpha 0.1,0.2 --reps 30 --threads "$threads" --out "perm4-$threads.csv"
      # multi-round curtailed test grids
      fixedb permutation --B 19,99 --alpha 0.05,0.1,0.2 --reps 40 --threads "$threads" --out "permg-$threads.csv"
      fixedb randomization --B 19,99 --alpha 0.05,0.1,0.2 --reps 60 --threads "$threads" --out "randg-$threads.csv"
      # wide permutation samples: blocks of 3 replicates, each round scored in one (rows, 2, m) call
      fixedb permutation --m 200 --B 19,99 --alpha 0.05,0.1 --reps 30 --threads "$threads" --out "permw-$threads.csv"
      # SGD blocks: shares of 3 replicates at threads 2
      fixedb sgd --B 19,39 --methods modified,randomized --reps 6 --n 400 --burn-in 100 --threads "$threads" --out "sgd-$threads.csv"
    done
    cmp perm-1.csv perm-2.csv
    cmp boot-1.csv boot-2.csv
    cmp sub-1.csv sub-2.csv
    cmp boot2-1.csv boot2-2.csv
    cmp rand-1.csv rand-2.csv
    cmp perm4-1.csv perm4-2.csv
    cmp permg-1.csv permg-2.csv
    cmp randg-1.csv randg-2.csv
    cmp permw-1.csv permw-2.csv
    cmp sgd-1.csv sgd-2.csv
    ;;
  grid)
    for proc in permutation randomization bootstrap; do
      fixedb "$proc" --B 19,99 --alpha 0.05,0.1,0.2 --reps 40 --out "grid-$proc.csv"
      : > "cells-$proc.csv"
      for alpha in 0.05 0.1 0.2; do
        for B in 19 99; do
          fixedb "$proc" --B "$B" --alpha "$alpha" --reps 40 --out cell.csv
          tail -n +2 cell.csv >> "cells-$proc.csv"
        done
      done
      tail -n +2 "grid-$proc.csv" | cmp - "cells-$proc.csv"
    done
    ;;
  verify-seeds)
    for s in 0 2 4177; do
      fixedb verify --seed "$s" || exit 1
    done
    ;;
  configs)
    # unread: a valid value of every known key the subcommand does not read
    same_bytes() {  # CMD UNREAD FLAGS...
      local cmd=$1 unread=$2
      shift 2
      echo "{$unread}" > "unread-$cmd.json"
      fixedb "$cmd" "$@" --out "$cmd-read.csv"
      fixedb "$cmd" "$@" --config "unread-$cmd.json" --out "$cmd-unread.csv"
      cmp "$cmd-read.csv" "$cmd-unread.csv"
    }
    tests='"paper_scale": true, "methods": ["vanilla"], "d": 4, "n": 10, "burn_in": 20, "k": 200'
    same_bytes bootstrap '"n": 10, "burn_in": 20, "k": 200' --reps 20
    same_bytes subsample '"n": 10, "burn_in": 20' --reps 20
    same_bytes sgd '"m": 40, "d": 4, "k": 200' --reps 2 --n 400 --burn-in 100
    same_bytes permutation "$tests" --reps 10
    same_bytes randomization "$tests" --reps 20
    same_bytes conformal '"paper_scale": true, "B": [7], "methods": ["vanilla"], "reps": 5, "threads": 2,
      "d": 4, "n": 10, "burn_in": 20, "k": 200' --m 10,100
    rc=0
    fixedb bootstrap --B , --reps 2 --out empty.csv || rc=$?
    [ "$rc" -eq 2 ] && [ ! -e empty.csv ]
    ;;
  *)
    echo "usage: $0 threads|grid|verify-seeds|configs" >&2
    exit 2
    ;;
esac
