"""How tie-aware expected rank differs from naive best/worst-case ranks.

Scores five statements with a tie-group containing the faulty element and
shows the exact expected inspection position, the EXAM score, and how the
closed form agrees with brute-force enumeration over tie orderings.

    python3 demos/metrics_ties.py
"""

import itertools
from fractions import Fraction

from flkit.metrics import expected_first_faulty_rank
from flkit.model import ProgramElement, ranked


def main():
    # five statements; the faulty one is tied with two others at the top score
    elems = [ProgramElement("demo.ml", i) for i in range(1, 6)]
    scores = {elems[0]: 0.9, elems[1]: 0.9, elems[2]: 0.9, elems[3]: 0.4, elems[4]: 0.1}
    faulty = {elems[1]}
    groups = {}
    for start, _, elem in ranked(scores):
        groups.setdefault(start, []).append(elem)
    print("tie-groups:", [[e.line for e in g] for g in groups.values()])

    value = expected_first_faulty_rank(scores, faulty)
    print(f"expected first-faulty rank: {value} "
          f"(best case 1, worst case {len(groups[1])})")
    print(f"EXAM over {len(elems)} statements: {value / len(elems)}")

    # brute force: average the faulty position over all orderings of the group
    group = groups[1]
    total = Fraction(0)
    perms = list(itertools.permutations(group))
    for perm in perms:
        total += perm.index(elems[1]) + 1
    print(f"enumeration over {len(perms)} tie orderings gives: {total / len(perms)}")


if __name__ == "__main__":
    main()
