"""A traced run read back from the trace document it writes."""
import io

from groversim import parse_trace_document, run_grover


def traced(config):
    """Runs config with its trace written into a string; returns the run's
    result and the parsed document."""
    out = io.StringIO()
    result = run_grover(config, out)
    return result, parse_trace_document(out.getvalue())
