"""Golden regression files: refactors must leave results byte-identical.

Rewrite the files (only when a change is meant to alter results, and say so
in CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
from pathlib import Path

from flkit.corpus import load_corpus
from flkit.minilang import gen_mutants
from flkit.pipeline import emit_report, evaluate_corpus

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT_FILES = {3: GOLDEN / "report_level3.json", 4: GOLDEN / "report_level4.json"}
MUTANTS_FILE = GOLDEN / "mutants.tsv"


def report_text(bundles, level: int) -> str:
    """Kfold statement report as JSON, without the run-dependent timings."""
    results = evaluate_corpus(bundles, level=level)
    del results["timings"]
    return emit_report(results, "json")


def _render(node) -> str:
    if dataclasses.is_dataclass(node):
        inner = ", ".join(
            f"{f.name}={_render(getattr(node, f.name))}" for f in dataclasses.fields(node)
        )
        return f"{type(node).__name__}({inner})"
    if isinstance(node, list):
        return "[" + ", ".join(_render(n) for n in node) + "]"
    return repr(node)


def mutants_text(bundles) -> str:
    """One tab-separated line per mutant, with a digest of its statements."""
    lines = []
    for bundle in bundles:
        for m in gen_mutants(bundle.program):
            rendered = "\n".join(_render(s) for s in m.program.statements())
            digest = hashlib.sha256(rendered.encode()).hexdigest()[:16]
            lines.append(
                "\t".join(
                    (bundle.fault_id, m.mutant_id, str(m.element), m.operator, m.description, digest)
                )
            )
    return "\n".join(lines) + "\n"


def test_report_matches_golden():
    assert report_text(load_corpus(CORPUS), 3) == REPORT_FILES[3].read_text()


def test_level4_report_matches_golden():
    assert report_text(load_corpus(CORPUS), 4) == REPORT_FILES[4].read_text()


def test_mutants_match_golden():
    bundles = load_corpus(CORPUS)
    text = mutants_text(bundles)
    assert len(text.splitlines()) == 203
    assert text == MUTANTS_FILE.read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    bundles = load_corpus(CORPUS)
    for level, path in REPORT_FILES.items():
        path.write_text(report_text(bundles, level))
    MUTANTS_FILE.write_text(mutants_text(bundles))
