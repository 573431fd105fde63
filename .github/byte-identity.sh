#!/usr/bin/env bash
# Usage: .github/byte-identity.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Runs each tree's code on that tree's configs into OUT_DIR/base and
# OUT_DIR/head, then diffs the two: every shipped config's solve outputs, as
# shipped and as CSV, example5a's at (N, n) = (40, 64) and example5c's at
# (20, 128), the linear configs' oracle outputs, as SVG and as CSV, and
# example5a's sweep over alpha = 0.1 and 10, one subdirectory each.
# Exits 0 when they are byte-identical and 1 when any file differs.
set -eo pipefail

outputs() {  # outputs TREE DEST: run TREE's code on TREE's configs into DEST
  for config in "$1"/configs/*.json; do
    name=$(basename "$config" .json)
    csv="$2.$name-csv.json"  # the same config with "format": "csv"
    python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["format"] = "csv"; json.dump(c, open(sys.argv[2], "w"))' \
      "$config" "$csv"
    PYTHONPATH="$1/src" python -m diskwarp.cli solve "$config" --output "$2/solve/$name"
    PYTHONPATH="$1/src" python -m diskwarp.cli solve "$csv" --output "$2/solve-csv/$name"
  done
  for size in example5a,40,64 example5c,20,128; do  # the benchmark's large (N, n)
    IFS=, read -r name steps degree <<< "$size"
    large="$2.$name-$steps-$degree.json"  # the same config at that (N, n)
    python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["N"], c["n"] = map(int, sys.argv[3:]); json.dump(c, open(sys.argv[2], "w"))' \
      "$1/configs/$name.json" "$large" "$steps" "$degree"
    PYTHONPATH="$1/src" python -m diskwarp.cli solve "$large" --output "$2/solve-large/$name-$steps-$degree"
  done
  for name in example1a example1b example2a example2b; do
    PYTHONPATH="$1/src" python -m diskwarp.cli oracle "$1/configs/$name.json" \
      --output "$2/oracle-svg/$name"
    PYTHONPATH="$1/src" python -m diskwarp.cli oracle "$2.$name-csv.json" \
      --output "$2/oracle-csv/$name"
  done
  PYTHONPATH="$1/src" python -m diskwarp.cli sweep --alpha 0.1,10 "$1/configs/example5a.json" \
    --output "$2/sweep/example5a"
}

mkdir -p "$3"
outputs "$1" "$3/base"
outputs "$2" "$3/head"
diff -r "$3/base" "$3/head"
