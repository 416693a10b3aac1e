"""Summarise a traced run's spans per op kind.

  python3 bench/spans.py bench/out/spans-exact-builtins.npz [FILTER]

For every (op kind, span name) pair it prints calls per op, inclusive and
self milliseconds per call.  FILTER keeps op kinds containing that text.
"""

from __future__ import annotations

import sys

import numpy as np

from tracer import self_times


def main() -> int:
    data = np.load(sys.argv[1])
    wanted = sys.argv[2] if len(sys.argv) > 2 else ""
    names, op_names = data["names"], data["op_names"]
    name, parent, op = data["name"], data["parent"], data["op"]
    dur = data["end"] - data["start"]
    self_s = self_times(dur, parent)
    kind = op % len(op_names)
    print(f"{'op kind':48s} {'span':34s} {'calls/op':>9s} {'incl ms':>9s} {'self ms':>9s}")
    for k, op_name in enumerate(op_names):
        if wanted not in op_name:
            continue
        in_kind = kind == k
        n_ops = np.unique(op[in_kind]).size
        for i, span in enumerate(names):
            sel = in_kind & (name == i)
            calls = int(sel.sum())
            if calls:
                print(
                    f"{op_name[:48]:48s} {span:34s} {calls / n_ops:9.2f} "
                    f"{dur[sel].mean() * 1e3:9.3f} {self_s[sel].mean() * 1e3:9.3f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
