"""Command-line surface: localize, evaluate, correlate, combine, report."""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import sys
from pathlib import Path

from . import combine as cmb
from .corpus import CorpusError, ingest_scores, load_corpus, load_fault
from .metrics import expected_first_faulty_rank
from .model import full_universe_ranking, ranked
from .pipeline import (
    PipelineError,
    analyze_corpus,
    analyze_fault,
    corpus_features,
    correlation_matrix,
    emit_report,
    evaluate_corpus,
    evaluate_score_records,
    technique_ranks,
)


def _parse_preset(text: str) -> int:
    levels = [f.level for f in cmb.FAMILIES]
    low, high = min(levels), max(levels)
    try:
        level = int(text.removeprefix("level"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad preset {text!r}; expected level{low}..level{high}")
    if level not in levels:
        raise argparse.ArgumentTypeError(f"preset level {level} out of range {low}..{high}")
    return level


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_preset(parser):
    levels = [f.level for f in cmb.FAMILIES]
    parser.add_argument("--preset", type=_parse_preset, default=2, help=f"level{min(levels)}..level{max(levels)}")


def _add_common(parser):
    parser.add_argument("--corpus", required=True, help="corpus directory")
    _add_preset(parser)
    parser.add_argument("--granularity", choices=("statement", "method"), default="statement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("localize", help="rank suspicious statements for one fault")
    p.add_argument("--corpus", required=True)
    p.add_argument("--fault", required=True, help="fault id (corpus subdirectory)")
    _add_preset(p)
    p.add_argument(
        "--technique",
        action="append",
        help="restrict output to these techniques (repeatable)",
    )
    p.add_argument("--top", type=_at_least_one, default=10, help="elements shown per technique")

    p = sub.add_parser("evaluate", help="run the preset over a corpus with cross-validation")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--cv", choices=("kfold", "cross-project"), default="kfold")
    p.add_argument("--format", choices=("text-table", "json", "csv"), default="text-table")
    p.add_argument("--no-ablation", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("correlate", help="pairwise r^2 between techniques")
    _add_common(p)
    p.add_argument("--q", type=_at_least_one, default=100, help="expected-rank retention threshold")
    p.add_argument("--format", choices=("text-table", "json"), default="text-table")

    p = sub.add_parser("combine", help="train, save, or apply a rank-combination model")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", help="train on the corpus and write the model JSON here")
    p.add_argument("--load", help="apply a previously saved model")
    p.add_argument("--fault", help="with --load: fault to score")

    p = sub.add_parser("report", help="metrics for externally supplied score records")
    p.add_argument("--corpus", required=True)
    p.add_argument("--scores", required=True, help="JSON-lines score records")
    p.add_argument("--granularity", choices=("statement", "method"), default="statement")
    p.add_argument("--format", choices=("text-table", "json", "csv"), default="text-table")
    p.add_argument("--out")
    return parser


def _check_out(out):
    """Fail as writing out would, before the work, if its directory does not exist."""
    if out and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def _write(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_localize(args) -> int:
    produced = cmb.preset_techniques(args.preset)
    for tech in args.technique or ():
        if tech not in produced:
            raise PipelineError(f"technique {tech!r} not produced by preset level{args.preset}")
    bundle = load_fault(Path(args.corpus) / args.fault)
    analysis = analyze_fault(bundle, cmb.preset_families(args.preset))
    for tech in dict.fromkeys(args.technique or sorted(analysis.scores)):
        scores = full_universe_ranking(analysis.scores[tech], bundle.elements)
        value = expected_first_faulty_rank(scores, bundle.faulty)
        print(f"== {tech} (E_inspect = {value})")
        for start, score, elem in itertools.islice(ranked(scores), args.top):
            marker = " *" if elem in bundle.faulty else ""
            print(f"  {start:>4}  {score:<12.6g} {elem}{marker}")
    return 0


def cmd_evaluate(args) -> int:
    _check_out(args.out)
    bundles = load_corpus(args.corpus)
    results = evaluate_corpus(
        bundles,
        level=args.preset,
        granularity=args.granularity,
        seed=args.seed,
        k=args.k,
        cv=args.cv,
        with_ablation=not args.no_ablation,
    )
    _write(emit_report(results, args.format), args.out)
    return 0


def cmd_correlate(args) -> int:
    analyses = analyze_corpus(load_corpus(args.corpus), args.preset)
    techniques = cmb.preset_techniques(args.preset)
    values, _ = technique_ranks(analyses, techniques, args.granularity)
    slim = {"correlation": correlation_matrix(values, q=args.q)}
    _write(emit_report(slim, args.format), None)
    return 0


def cmd_combine(args) -> int:
    if args.fault is not None and not args.load:
        raise PipelineError("--fault applies only with --load")
    if args.save is not None and args.load:
        raise PipelineError("--save applies only without --load")
    _check_out(args.save)
    bundles = load_corpus(args.corpus)
    if args.load:
        model = cmb.RankModel.from_json(Path(args.load).read_text())
        targets = [b for b in bundles if args.fault in (None, b.fault_id)]
        if not targets:
            raise PipelineError(f"fault {args.fault!r} not in corpus")
        analyses = analyze_corpus(targets, args.preset)
        for feats in corpus_features(analyses, model.techniques, args.granularity):
            value = cmb.combined_e_inspect(model, feats)
            print(f"{feats.fault_id}: combined E_inspect = {value}")
        return 0
    techniques = cmb.preset_techniques(args.preset)
    analyses = analyze_corpus(bundles, args.preset)
    features = corpus_features(analyses, techniques, args.granularity)
    pairs = cmb.build_pairwise_constraints(features, seed=args.seed)
    model = cmb.train(pairs, techniques, seed=args.seed)
    text = model.to_json() + "\n"
    if args.save:
        Path(args.save).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    _check_out(args.out)
    bundles = load_corpus(args.corpus)
    records = ingest_scores(args.scores)
    results = evaluate_score_records(records, bundles, granularity=args.granularity)
    _write(emit_report(results, args.format), args.out)
    return 0


COMMANDS = {
    "localize": cmd_localize,
    "evaluate": cmd_evaluate,
    "correlate": cmd_correlate,
    "combine": cmd_combine,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CorpusError, PipelineError, cmb.CombineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
