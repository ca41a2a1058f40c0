"""`python -m bimodalskew.cli` with the layers wrapped in spans, for traced runs.

Takes the CLI's own arguments.  The request id, the parent span id and the
spans file come from the environment set by `workloads.run_cli`; the spans
are appended to that file when the command returns.
"""

import os
import sys

import spans
from bimodalskew import cli

if __name__ == "__main__":
    tracer = spans.Tracer(os.environ[spans.ENV_REQUEST], int(os.environ[spans.ENV_PARENT]))
    with spans.instrument(tracer):
        code = cli.main(sys.argv[1:])
    tracer.dump(os.environ[spans.ENV_OUT])
    sys.exit(code)
