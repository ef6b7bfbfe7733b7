"""External evaluator for the mixed space, speaking dse's CSV protocol.

Reads a request CSV on stdin (parameter columns), answers on stdout with the
parameter columns plus f1, f2 and feasible. Pure Python, no numpy, so its
start-up stays small. When given a path argument, it appends one line
"<arrival> <return> <rows>" of monotonic-clock times to that file: the
benchmark reads the idle time of the evaluator between batches from it.

    python3 zdt_child.py [timestamp_log] < request.csv > response.csv
"""

import time

ARRIVAL = time.monotonic()

import csv  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402

from zdt import OBJECTIVES, evaluate  # noqa: E402


def main() -> int:
    rows = [row for row in csv.reader(io.StringIO(sys.stdin.read())) if row]
    header, body = rows[0], rows[1:]
    out = io.StringIO()
    out.write(",".join(header + list(OBJECTIVES) + ["feasible"]) + "\n")
    for row in body:
        values = dict(zip(header, row))
        result = evaluate(values)
        cells = row + [repr(result[o]) for o in OBJECTIVES]
        cells.append("true" if result["feasible"] else "false")
        out.write(",".join(cells) + "\n")
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "a", encoding="utf-8") as log:
            log.write(f"{ARRIVAL!r} {time.monotonic()!r} {len(body)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
