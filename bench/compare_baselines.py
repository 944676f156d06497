#!/usr/bin/env python3
"""Compare freshly emitted BENCH_*.json files against bench/baselines/.

CI runs every bench at the size its baseline records except
bench_admission, which still runs at --smoke size; host-time numbers
differ from run to run anyway, so what is compared is the *shape*.
For every baseline this checks that the matching emitted file exists,
parses, carries the same top-level keys, and (for arrays of labelled
series rows) the same per-row key sets and the same label sequence.
A bench that silently drops a series or renames a field fails here
before anyone diffs dashboards.

Usage: compare_baselines.py [emitted_dir] [baseline_dir]
Defaults: emitted_dir=. baseline_dir=bench/baselines (repo-root cwd).
"""

import json
import pathlib
import sys

# Fields that name a series row; compared as ordered label sequences.
LABEL_KEYS = ("mode", "config", "workload", "name", "phase")


def row_labels(rows):
    for key in LABEL_KEYS:
        if all(isinstance(r, dict) and key in r for r in rows):
            return key, [r[key] for r in rows]
    return None, None


def compare(name, emitted, baseline):
    errors = []
    if set(emitted) != set(baseline):
        errors.append(
            f"top-level keys differ: emitted has "
            f"{sorted(set(emitted) - set(baseline))} extra, missing "
            f"{sorted(set(baseline) - set(emitted))}")
    for key, base_val in baseline.items():
        emit_val = emitted.get(key)
        if isinstance(base_val, list) and base_val and \
                isinstance(base_val[0], dict):
            if not (isinstance(emit_val, list) and emit_val and
                    isinstance(emit_val[0], dict)):
                errors.append(f"'{key}' is no longer a series array")
                continue
            base_keys = set(base_val[0])
            emit_keys = set(emit_val[0])
            if base_keys != emit_keys:
                errors.append(
                    f"'{key}' row fields differ: extra "
                    f"{sorted(emit_keys - base_keys)}, missing "
                    f"{sorted(base_keys - emit_keys)}")
            label, base_labels = row_labels(base_val)
            if label is not None:
                _, emit_labels = row_labels(emit_val)
                if base_labels != emit_labels:
                    errors.append(
                        f"'{key}' {label} labels differ: "
                        f"{emit_labels} vs baseline {base_labels}")
    return [f"{name}: {e}" for e in errors]


def main(argv):
    emitted_dir = pathlib.Path(argv[1] if len(argv) > 1 else ".")
    baseline_dir = pathlib.Path(
        argv[2] if len(argv) > 2 else "bench/baselines")
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {baseline_dir}", file=sys.stderr)
        return 2
    errors = []
    for base_path in baselines:
        emit_path = emitted_dir / base_path.name
        if not emit_path.exists():
            errors.append(f"{base_path.name}: not emitted by this run")
            continue
        baseline = json.loads(base_path.read_text())
        emitted = json.loads(emit_path.read_text())
        errors.extend(compare(base_path.name, emitted, baseline))
        if not baseline.get("smoke", False) and emitted.get("smoke", False):
            print(f"{base_path.name}: OK (smoke run vs full baseline; "
                  "structural check only)")
        else:
            print(f"{base_path.name}: OK")
    for err in errors:
        print(f"baseline mismatch -- {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
