"""RES001-003: span/telemetry/file typestate over the CFG."""

import textwrap

from repro.analysis.engine import check_source

MODULE = "repro.core.worker"


def _rules(src, module=MODULE):
    return sorted(
        f.rule for f in check_source(textwrap.dedent(src), module=module)
        if f.rule.startswith("RES")
    )


def _findings(src, module=MODULE):
    return [
        f for f in check_source(textwrap.dedent(src), module=module)
        if f.rule.startswith("RES")
    ]


# -- RES001: span handles ---------------------------------------------------

def test_span_leaked_on_early_return():
    src = """
        def work(tracer, cond):
            span = tracer.begin("work")
            if cond:
                return 1
            span.end()
            return 0
    """
    assert _rules(src) == ["RES001"]
    [finding] = _findings(src)
    assert finding.line == 3  # anchored at the acquisition
    assert "return" in finding.message


def test_span_leaked_on_uncaught_raise():
    src = """
        def work(tracer, bad):
            span = tracer.begin("work")
            if bad:
                raise ValueError(bad)
            span.end()
    """
    assert _rules(src) == ["RES001"]


def test_span_closed_in_finally_is_clean():
    src = """
        def work(tracer, cond):
            span = tracer.begin("work")
            try:
                do(cond)
            finally:
                span.end()
    """
    assert _rules(src) == []


def test_span_closed_in_catch_all_handler_is_clean():
    src = """
        def work(tracer, cond):
            span = tracer.begin("work")
            try:
                do(cond)
            except BaseException:
                span.end(error=True)
                raise
            span.end()
    """
    assert _rules(src) == []


def test_guarded_conditional_span_is_clean():
    """The None-guard idiom used across src/ is path-sensitively clean."""
    src = """
        def work(tracer, enabled):
            span = None
            if enabled:
                span = tracer.begin("work")
            do()
            if span is not None:
                span.end()
    """
    assert _rules(src) == []


def test_conditional_span_without_guard_leaks():
    src = """
        def work(tracer, enabled):
            span = None
            if enabled:
                span = tracer.begin("work")
            do()
            return 0
    """
    assert _rules(src) == ["RES001"]


def test_with_managed_span_is_clean():
    src = """
        def work(tracer):
            with tracer.span("work"):
                do()
    """
    assert _rules(src) == []


def test_escaped_span_transfers_ownership():
    src = """
        def work(tracer, sink):
            a = tracer.begin("a")
            sink.append(a)
            b = tracer.begin("b")
            return b
            """
    assert _rules(src) == []


def test_span_stored_on_self_is_not_a_leak():
    src = """
        def work(self, tracer):
            span = tracer.begin("phase")
            self._phase_span = span
    """
    assert _rules(src) == []


def test_fire_and_forget_begin_is_reported():
    src = """
        def work(tracer):
            tracer.begin("never.closed")
    """
    assert _rules(src) == ["RES001"]


def test_generator_is_skipped_gracefully():
    src = """
        def work(tracer):
            span = tracer.begin("work")
            yield 1
    """
    assert _rules(src) == []


def test_noqa_suppresses_resource_finding():
    src = """
        def work(tracer):
            span = tracer.begin("x")  # repro: noqa[RES001] closed by end_all in teardown
            return span.id
    """
    assert _rules(src) == []


# -- RES003: file handles ---------------------------------------------------

def test_bare_open_with_early_return_leaks_in_library_code():
    src = """
        def load(path, cond):
            f = open(path)
            if cond:
                return None
            data = f.read()
            f.close()
            return data
    """
    assert _rules(src) == ["RES003"]


def test_with_open_is_clean():
    src = """
        def load(path):
            with open(path) as f:
                return f.read()
    """
    assert _rules(src) == []


def test_open_outside_library_code_is_not_checked():
    src = """
        def load(path, cond):
            f = open(path)
            if cond:
                return None
            return f.read()
    """
    assert _rules(src, module="tests.helpers") == []


def test_always_closed_open_is_clean():
    src = """
        def load(path):
            f = open(path)
            try:
                return f.read()
            finally:
                f.close()
    """
    assert _rules(src) == []
