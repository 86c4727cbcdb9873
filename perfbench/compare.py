"""Compare two result files of perfbench/run.py, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) unless both ran the same workload and trace mode on the
same kernel backend.  Prints each metric's two values and new/base ratio.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for key in ("workload", "trace", "kernel_backend"):
        if base[key] != new[key]:
            print(f"error: {key} differs: {base[key]!r} vs {new[key]!r}", file=sys.stderr)
            return 2
    print(f"{base['workload']}: seed {base['seed']} at {base['git_sha']} vs seed {new['seed']} at {new['git_sha']}")
    for name, m in base["metrics"].items():
        other = new["metrics"].get(name, {}).get("value")
        shown = "-" if other is None else f"{other:.6g}"
        ratio = f"{other / m['value']:.3f}" if other is not None and m["value"] else "-"
        print(f"  {name:40} {m['value']:>14.6g} {shown:>14} {ratio:>7} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
