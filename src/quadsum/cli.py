"""Command-line front end: decide / construct / verify / classify / oracle /
necessary over JSON job files.

Exit codes: 0 = a result was rendered (including decision "no" and failed
verification reports), 2 = malformed input, a bad command line or a violated
precondition, 3 = unsupported case or non-split quadratic, 4 = internal check
failure.  A command renders its result or raises; :func:`main` alone maps
an error to its exit code and its one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import oracle, serialize
from .errors import (BadParams, BudgetExceeded, DecisionNo, InternalCheckFailed,
                     MalformedInput, NotSplitError, QuadsumError, UnsupportedCase)
from .matrix import _check_bounds
from .sums import (Certificate, classify_and_reduce, construct, decide,
                   check_necessary_combination, verify_certificate)

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _emit(payload, output_path):
    """Write the result to ``output_path`` when given, then to stdout, so a
    file that cannot be written leaves stdout empty."""
    text = serialize.dumps(payload) + "\n"
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedInput(f"cannot write {output_path}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _fail(code: int, message: str) -> int:
    sys.stderr.write(message + "\n")
    return code


def _load_job(path: str):
    return serialize.jobspec_from_json(serialize.load_json(path))


def cmd_decide(args):
    _, matrix, params = _load_job(args.input)
    _check_bounds(matrix)
    cls, reduced = classify_and_reduce(matrix, params)
    decision = decide(reduced) if cls.case == "III" else None
    _emit(serialize.decision_to_json(decision, cls), args.output)
    if decision is None:  # the payload says so too, on stdout
        raise UnsupportedCase(cls)


def cmd_construct(args):
    field, matrix, params = _load_job(args.input)
    _check_bounds(matrix)
    try:
        cert = construct(matrix, params)
    except DecisionNo as exc:
        _emit(serialize.decision_to_json(exc.decision), args.output)
        return
    payload = serialize.certificate_to_json(cert)
    # construct has verified cert; the serialized form must reload to it exactly
    reloaded = serialize.certificate_from_json(field, payload)
    if reloaded != Certificate(cert.a_part, cert.b_part, cert.params):
        raise InternalCheckFailed(f"construct: the serialized certificate of the "
                                  f"{matrix.rows}x{matrix.cols} matrix does not reload "
                                  "to the verified one")
    _emit(payload, args.output)


def cmd_verify(args):
    field, matrix, params = _load_job(args.input)
    cert = serialize.certificate_from_json(field, serialize.load_json(args.cert))
    if cert.params != params:  # a certificate answers its own question, maybe not the job's
        raise MalformedInput("the certificate's params differ from the job's")
    report = verify_certificate(matrix, cert)
    _emit(serialize.verification_to_json(report), args.output)


def cmd_classify(args):
    _, matrix, params = _load_job(args.input)
    cls, _ = classify_and_reduce(matrix, params)
    _emit(serialize.to_json(cls), args.output)


def cmd_oracle(args):
    if not args.field.startswith("gf"):
        raise MalformedInput(f"oracle field must be gf<p>, got {serialize._echo(args.field)}")
    field = serialize.field_from_json({"GF": args.field[2:]})
    report = oracle.exhaustive_compare(field, serialize._integer(args.n, "--n"))
    _emit(serialize.comparison_to_json(report), args.output)


def cmd_necessary(args):
    field, matrix, _ = _load_job(args.input)
    _check_bounds(matrix)
    report = check_necessary_combination(matrix,
                                         serialize._parse_element(field, args.alpha, "--alpha"),
                                         serialize._parse_element(field, args.beta, "--beta"))
    _emit(serialize.to_json(report), args.output)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsum",
        description="Decide and certify sums of two split-quadratic matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def job_cmd(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="job JSON file")
        cmd.add_argument("--output", help="also write the JSON result here")
        cmd.set_defaults(func=func)
        return cmd

    job_cmd("decide", cmd_decide, "yes/no decision with diagnostics")
    job_cmd("construct", cmd_construct, "build and verify a certificate")
    verify = job_cmd("verify", cmd_verify, "check a certificate against a matrix")
    verify.add_argument("--cert", required=True, help="certificate JSON file")
    job_cmd("classify", cmd_classify, "case classification only")
    necessary = job_cmd("necessary", cmd_necessary,
                        "necessary condition for alpha*P + beta*Q")
    necessary.add_argument("--alpha", required=True)
    necessary.add_argument("--beta", required=True)

    orc = sub.add_parser("oracle", help="exhaustive decide-vs-enumeration comparison")
    orc.add_argument("--field", required=True, help="finite field gf<p>, e.g. gf2")
    orc.add_argument("--n", required=True, help="matrix size")
    orc.add_argument("--output", help="also write the JSON result here")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    # "--alpha -1/2" as "--alpha=-1/2": argparse reads a value that starts
    # with "-" and is not a plain number as an option name
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--alpha", "--beta"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = build_parser().parse_args(joined)
    except SystemExit as exc:  # argparse has printed the usage error (or --help)
        return exc.code
    try:
        args.func(args)
    except (MalformedInput, BadParams, BudgetExceeded) as exc:
        return _fail(EXIT_MALFORMED, f"malformed input: {exc}")
    except UnsupportedCase as exc:
        return _fail(EXIT_UNSUPPORTED, f"unsupported_case {exc.classification.case}")
    except NotSplitError as exc:
        return _fail(EXIT_UNSUPPORTED, f"not split: {exc}")
    except InternalCheckFailed as exc:
        return _fail(EXIT_INTERNAL, f"internal check failed: {exc}")
    except QuadsumError as exc:
        return _fail(EXIT_MALFORMED, f"error: {exc}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
