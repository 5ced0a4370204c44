"""Regenerate the committed demo corpus (10 seeded single-statement bugs).

    python tools/make_corpus.py [OUT_DIR]

writes it under OUT_DIR, by default the repository's corpus/.
"""

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "corpus"

# Each entry: program source, faulty element key(s), tests, report text.
FAULTS = {
    "f01_absval": {
        "program": """\
func absval(x) {
    if (x < 0) {
        return x;
    }
    return x;
}
""",
        "faulty": ["program.ml:3:0"],
        "tests": [
            {"id": "t1", "entry": "absval", "args": [-3], "expect": 3},
            {"id": "t2", "entry": "absval", "args": [-10], "expect": 10},
            {"id": "t3", "entry": "absval", "args": [0], "expect": 0},
            {"id": "t4", "entry": "absval", "args": [4], "expect": 4},
            {"id": "t5", "entry": "absval", "args": [9], "expect": 9},
        ],
        "report": "absval returns a negative number unchanged instead of its magnitude; negative input x stays negative",
    },
    "f02_maxof3": {
        "program": """\
func maxof3(a, b, c) {
    var m = a;
    if (b > m) {
        m = a;
    }
    if (c > m) {
        m = c;
    }
    return m;
}
""",
        "faulty": ["program.ml:4:0"],
        "tests": [
            {"id": "t1", "entry": "maxof3", "args": [1, 5, 2], "expect": 5},
            {"id": "t2", "entry": "maxof3", "args": [1, 9, 3], "expect": 9},
            {"id": "t3", "entry": "maxof3", "args": [5, 1, 2], "expect": 5},
            {"id": "t4", "entry": "maxof3", "args": [3, 3, 8], "expect": 8},
            {"id": "t5", "entry": "maxof3", "args": [7, 2, 2], "expect": 7},
        ],
        "report": "maxof3 ignores the middle argument b when b is the maximum; wrong value kept in m",
    },
    "f03_sumarr": {
        "program": """\
func sumarr(a, n) {
    var s = 0;
    var i = 0;
    while (i < n) {
        s = s + a[0];
        i = i + 1;
    }
    return s;
}
""",
        "faulty": ["program.ml:5:0"],
        "tests": [
            {"id": "t1", "entry": "sumarr", "args": [[1, 2], 2], "expect": 3},
            {"id": "t2", "entry": "sumarr", "args": [[0, 1, 2], 3], "expect": 3},
            {"id": "t3", "entry": "sumarr", "args": [[2, 3], 2], "expect": 5},
            {"id": "t4", "entry": "sumarr", "args": [[], 0], "expect": 0},
            {"id": "t5", "entry": "sumarr", "args": [[5, 5], 2], "expect": 10},
        ],
        "report": "sumarr accumulates the first array element repeatedly; sum wrong for arrays with distinct values",
    },
    "f04_gcd": {
        "program": """\
func gcd(a, b) {
    while (b != 0) {
        var t = b;
        b = a % b;
        a = b;
    }
    return a;
}
""",
        "faulty": ["program.ml:5:0"],
        "tests": [
            {"id": "t1", "entry": "gcd", "args": [12, 8], "expect": 4},
            {"id": "t2", "entry": "gcd", "args": [9, 6], "expect": 3},
            {"id": "t3", "entry": "gcd", "args": [1, 1], "expect": 1},
            {"id": "t4", "entry": "gcd", "args": [5, 0], "expect": 5},
            {"id": "t5", "entry": "gcd", "args": [0, 0], "expect": 0},
            {"id": "t6", "entry": "gcd", "args": [9, 0], "expect": 9},
        ],
        "report": "gcd returns zero whenever the loop runs; remainder variable overwrites the wrong operand a",
    },
    "f05_clampval": {
        "program": """\
func clampval(x, lo, hi) {
    if (x < lo) {
        return lo;
    }
    if (x > hi) {
        return lo;
    }
    return x;
}
""",
        "faulty": ["program.ml:6:0"],
        "tests": [
            {"id": "t1", "entry": "clampval", "args": [5, 0, 3], "expect": 3},
            {"id": "t2", "entry": "clampval", "args": [10, 1, 4], "expect": 4},
            {"id": "t3", "entry": "clampval", "args": [2, 0, 3], "expect": 2},
            {"id": "t4", "entry": "clampval", "args": [-1, 0, 3], "expect": 0},
            {"id": "t5", "entry": "clampval", "args": [3, 0, 3], "expect": 3},
        ],
        "report": "clampval clamps values above the upper bound hi to the lower bound lo instead of hi",
    },
    "f06_powit": {
        "program": """\
func powit(b, e) {
    var r = 1;
    var i = 0;
    while (i < e) {
        r = r * b;
        i = i + 2;
    }
    return r;
}
""",
        "faulty": ["program.ml:6:0"],
        "tests": [
            {"id": "t1", "entry": "powit", "args": [2, 3], "expect": 8},
            {"id": "t2", "entry": "powit", "args": [3, 1], "expect": 3},
            {"id": "t3", "entry": "powit", "args": [2, 0], "expect": 1},
            {"id": "t4", "entry": "powit", "args": [5, 2], "expect": 25},
            {"id": "t5", "entry": "powit", "args": [2, 4], "expect": 16},
            {"id": "t6", "entry": "powit", "args": [3, 2], "expect": 9},
        ],
        "report": "powit skips half of the multiplications; loop counter i advances too far each iteration",
    },
    "f07_countevens": {
        "program": """\
func iseven(x) {
    return (x % 2) == 1;
}
func countevens(a, n) {
    var c = 0;
    var i = 0;
    while (i < n) {
        if (iseven(a[i])) {
            c = c + 1;
        }
        i = i + 1;
    }
    return c;
}
""",
        "faulty": ["program.ml:2:0"],
        "tests": [
            {"id": "t1", "entry": "countevens", "args": [[2, 4], 2], "expect": 2},
            {"id": "t2", "entry": "countevens", "args": [[1, 3], 2], "expect": 0},
            {"id": "t3", "entry": "countevens", "args": [[], 0], "expect": 0},
            {"id": "t4", "entry": "countevens", "args": [[1, 2], 2], "expect": 1},
            {"id": "t5", "entry": "countevens", "args": [[2], 1], "expect": 1},
            {"id": "t6", "entry": "countevens", "args": [[7], 1], "expect": 0},
        ],
        "report": "countevens counts odd entries; parity predicate iseven compares the remainder to the wrong constant",
    },
    "f08_fibit": {
        "program": """\
func fibit(n) {
    var a = 0;
    var b = 1;
    var i = 0;
    while (i < n) {
        var t = a + b;
        a = b;
        b = a;
        i = i + 1;
    }
    return a;
}
""",
        "faulty": ["program.ml:8:0"],
        "tests": [
            {"id": "t1", "entry": "fibit", "args": [0], "expect": 0},
            {"id": "t2", "entry": "fibit", "args": [1], "expect": 1},
            {"id": "t3", "entry": "fibit", "args": [2], "expect": 1},
            {"id": "t4", "entry": "fibit", "args": [3], "expect": 2},
            {"id": "t5", "entry": "fibit", "args": [4], "expect": 3},
            {"id": "t6", "entry": "fibit", "args": [5], "expect": 5},
        ],
        "report": "fibit stalls at one: the running pair update drops the freshly computed term t",
    },
    "f09_signof": {
        "program": """\
func signof(x) {
    if (x > 0) {
        return 1;
    }
    if (x == 0) {
        return 0;
    }
    return 1;
}
""",
        "faulty": ["program.ml:8:0"],
        "tests": [
            {"id": "t1", "entry": "signof", "args": [-5], "expect": -1},
            {"id": "t2", "entry": "signof", "args": [-1], "expect": -1},
            {"id": "t3", "entry": "signof", "args": [0], "expect": 0},
            {"id": "t4", "entry": "signof", "args": [3], "expect": 1},
            {"id": "t5", "entry": "signof", "args": [8], "expect": 1},
        ],
        "report": "signof reports positive sign one for negative inputs; final return has the wrong constant",
    },
    "f10_maxidx": {
        "program": """\
func getat(a, i) {
    return a[i];
}
func maxidx(a, n) {
    var best = 0;
    var i = 1;
    while (i <= n) {
        if (getat(a, i) > getat(a, best)) {
            best = i;
        }
        i = i + 1;
    }
    return best;
}
""",
        "faulty": ["program.ml:7:0"],
        "tests": [
            {"id": "t1", "entry": "maxidx", "args": [[7], 1], "expect": 0},
            {"id": "t2", "entry": "maxidx", "args": [[3, 9], 2], "expect": 1},
            {"id": "t3", "entry": "maxidx", "args": [[5, 2, 8], 3], "expect": 2},
            {"id": "t4", "entry": "maxidx", "args": [[4], 0], "expect": 0},
            {"id": "t5", "entry": "maxidx", "args": [[1, 2], 0], "expect": 0},
        ],
        "report": "maxidx crashes with an index out of bounds reading past the end of the array; loop bound off by one in the while condition",
    },
}

HISTORY = [
    {"ts": 1000, "msg": "initial import", "files": ["program.ml", "util.ml"]},
    {"ts": 2500, "msg": "refactor helpers", "files": ["util.ml"]},
    {"ts": 4000, "msg": "fix boundary handling", "files": ["program.ml"]},
    {"ts": 5000, "msg": "close incorrect-result issue", "files": ["program.ml"]},
]


def main():
    parser = argparse.ArgumentParser(description="Write the demo corpus.")
    parser.add_argument("out", nargs="?", type=Path, default=ROOT, help="output directory (default: %(default)s)")
    out = parser.parse_args().out
    for fault_id, info in FAULTS.items():
        d = out / fault_id
        d.mkdir(parents=True, exist_ok=True)
        (d / "program.ml").write_text(info["program"])
        (d / "tests.json").write_text(json.dumps({"tests": info["tests"]}, indent=2) + "\n")
        (d / "truth.json").write_text(
            json.dumps({"faulty": info["faulty"], "project": fault_id.split("_")[1]}, indent=2) + "\n"
        )
        (d / "report.txt").write_text(info["report"] + "\n")
        (d / "history.json").write_text(json.dumps({"commits": HISTORY}, indent=2) + "\n")
    print(f"wrote {len(FAULTS)} faults under {out}")


if __name__ == "__main__":
    main()
