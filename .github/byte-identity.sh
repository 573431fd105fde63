#!/usr/bin/env bash
# Usage: .github/byte-identity.sh BASE_TREE HEAD_TREE OUT_DIR [BASE_COMMIT]
#
# Runs each tree's code on that tree's configs into OUT_DIR/base and
# OUT_DIR/head, then diffs the two: every shipped config's solve outputs, as
# shipped and as CSV, example5a's at (N, n) = (40, 64) and example5c's at
# (20, 128), with their targets and with the conformal analogues that the
# benchmark's nonzero seeds solve, the linear configs' oracle outputs, as SVG
# and as CSV, and example5a's sweep over alpha = 0.1 and 10, one
# subdirectory each.
# Lists the differing files, sorted, and their count, then prints the full
# diff. Exits 0 when the differing files, and for each differing report.txt
# the fields that differ, are exactly those that HEAD_TREE's
# .github/expected-diff.txt declares, and 1 otherwise. The manifest applies
# only when its parent line names BASE_COMMIT, the full id of BASE_TREE's
# commit; otherwise, or without BASE_COMMIT, it counts as empty and any
# differing file fails.
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
    analogue="$2.$name-$steps-$degree-analogue.json"  # and with its conformal analogue
    python -c '
import json, sys
import numpy as np
c = json.load(open(sys.argv[1]))
c["N"], c["n"] = map(int, sys.argv[4:])
json.dump(c, open(sys.argv[2], "w"))
# c_2, c_3, ... scaled by one factor so that sum_{j>=2} j|c_j| = |c_1|/2
t = np.array([complex(*pair) for pair in c["target"]])
t[2:] *= 0.5 * abs(t[1]) / np.sum(np.arange(2, len(t)) * np.abs(t[2:]))
c["target"] = [[z.real, z.imag] for z in t.tolist()]
json.dump(c, open(sys.argv[3], "w"))' "$1/configs/$name.json" "$large" "$analogue" "$steps" "$degree"
    PYTHONPATH="$1/src" python -m diskwarp.cli solve "$large" --output "$2/solve-large/$name-$steps-$degree"
    PYTHONPATH="$1/src" python -m diskwarp.cli solve "$analogue" \
      --output "$2/solve-analogue/$name-$steps-$degree"
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
differing=$(diff -rq "$3/base" "$3/head" | sort) || true
if [ -n "$differing" ]; then
  printf '%s\n' "$differing"
fi
echo "$(printf '%s' "$differing" | grep -c '') differing file(s)"
diff -r "$3/base" "$3/head" || true  # the manifest check below sets the status
python - "$2/.github/expected-diff.txt" "$3/base" "$3/head" "${4:-}" <<'PY'
import sys
from pathlib import Path

manifest, base, head, commit = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]


def fields(path):  # a report.txt's "key: value" lines
    return dict(line.split(": ", 1) for line in path.read_text(encoding="utf-8").splitlines())


found = {}  # each differing path -> the fields that differ, for a report.txt in both trees
for name in sorted({p.relative_to(root).as_posix()
                    for root in (base, head) for p in root.rglob("*") if p.is_file()}):
    old, new = base / name, head / name
    both = old.is_file() and new.is_file()
    if both and old.read_bytes() == new.read_bytes():
        continue
    keys = set()
    if both and name.endswith("report.txt"):
        a, b = fields(old), fields(new)
        keys = {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)}
    found[name] = keys

# "parent COMMIT", then one "PATH [FIELD ...]" line per expected difference
lines = [line.split() for line in manifest.read_text(encoding="utf-8").splitlines()
         if line.strip() and not line.startswith("#")] if manifest.is_file() else []
parent = lines[0][1] if lines and lines[0][0] == "parent" else None
expected = {}
if commit and parent == commit:
    expected = {words[0]: set(words[1:]) for words in lines[1:]}
elif lines:
    print(f"{manifest.name} is for parent {parent}, not {commit or 'an unnamed base'}: "
          "it counts as empty")

faults = [f"unexpected: {name} {' '.join(sorted(keys))}".rstrip()
          for name, keys in found.items() if name not in expected]
faults += [f"missing: {name}" for name in expected if name not in found]
faults += [f"fields: {name} differs in {sorted(found[name])}, declared {sorted(expected[name])}"
           for name in expected if name in found and found[name] != expected[name]]
for fault in faults:
    print(fault)
print(f"{len(found)} differing, {len(expected)} declared: {'MISMATCH' if faults else 'as declared'}")
sys.exit(1 if faults else 0)
PY
