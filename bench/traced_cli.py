"""``python -m towerbounds ARGS`` with spans: run as
``python bench/traced_cli.py SPANS_OUT ARGS...``.

Installs the wrappers of ``spans.Tracer``, runs ``towerbounds.cli.main`` on
ARGS, writes the spans to SPANS_OUT and exits with main's code.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    from towerbounds import cli

    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
