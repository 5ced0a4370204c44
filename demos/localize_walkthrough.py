"""Walk one seeded bug through several localization families.

Loads a fault from the committed corpus, runs its test suite under the
instrumented interpreter, and prints how the spectrum, slicing, and
stack-trace scorers each rank the known faulty statement.

Run from the repository root:

    python3 demos/localize_walkthrough.py [fault_id]
"""

import itertools
import sys
from pathlib import Path

from flkit.corpus import load_fault
from flkit.metrics import expected_first_faulty_rank
from flkit.minilang import run
from flkit.model import full_universe_ranking, ranked
from flkit.pipeline import analyze_fault

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def show_ranking(tech, scored, bundle, top=5):
    scores = full_universe_ranking(scored, bundle.elements)
    value = expected_first_faulty_rank(scores, bundle.faulty)
    print(f"\n{tech}: expected rank of the fault = {value}")
    for start, score, elem in itertools.islice(ranked(scores), top):
        mark = "  <-- seeded fault" if elem in bundle.faulty else ""
        print(f"  {start:>3}  {score:<10.4g} {elem}{mark}")


def main():
    fault_id = sys.argv[1] if len(sys.argv) > 1 else "f02_maxof3"
    bundle = load_fault(CORPUS / fault_id)
    print(f"fault {bundle.fault_id}: {len(bundle.elements)} statements, "
          f"{len(bundle.tests)} tests")
    print(f"ground truth: {sorted(map(str, bundle.faulty))}")

    failing = [t.test_id for t in bundle.tests
               if run(bundle.program, t).failed]
    print(f"failing tests: {failing}")

    analysis = analyze_fault(bundle, ("sbfl", "slicing", "stacktrace"))
    for tech in ("ochiai", "dstar", "slice-frequency"):
        show_ranking(tech, analysis.scores[tech], bundle)

    stack = analysis.scores["stacktrace"]
    if len(stack) == 0:
        print("\nstacktrace: no crash in any failing test, so no frames to score")
    else:
        show_ranking("stacktrace", stack, bundle)


if __name__ == "__main__":
    main()
