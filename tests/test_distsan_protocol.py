"""DistSan wire-protocol state machine over recorded frames."""

from repro.analysis.dist.protocol import check_connection, check_frames
from repro.runtime.distributed.comm import _HEADER, CODEC_PICKLE
from repro.runtime.distributed.events import DistTraceRecorder, FrameRecord

H = _HEADER.size


def _frame(direction, op, tid=-1, attempt=0, codec=CODEC_PICKLE,
           payload=40, retryable=None, exc=None):
    return FrameRecord(direction=direction, op=op, tid=tid,
                       attempt=attempt, codec=codec,
                       nbytes=payload + H, declared=payload,
                       retryable=retryable, exc=exc)


def _hello():
    return _frame("recv", "hello")


def _clean_exchange():
    return [
        _hello(),
        _frame("send", "task", tid=5),
        _frame("recv", "done", tid=5),
        _frame("send", "shutdown"),
        FrameRecord(direction="close"),
    ]


class TestCleanSequences:
    def test_clean_exchange(self):
        assert check_connection("w0", _clean_exchange()) == []

    def test_retry_uses_fresh_attempt(self):
        frames = [_hello(),
                  _frame("send", "task", tid=3, attempt=0),
                  _frame("recv", "fail", tid=3, attempt=0,
                         retryable=True, exc=OSError("boom")),
                  _frame("send", "task", tid=3, attempt=1),
                  _frame("recv", "done", tid=3, attempt=1)]
        assert check_connection("w0", frames) == []

    def test_crash_leaves_unanswered_tasks_silently(self):
        # A worker death means outstanding dispatches never get a
        # reply; that is recovery's business, not a protocol error.
        frames = [_hello(), _frame("send", "task", tid=9),
                  FrameRecord(direction="close")]
        assert check_connection("w0", frames) == []


class TestViolations:
    def _rules(self, frames):
        return [f.rule for f in check_connection("w0", frames)]

    def test_frame_after_close(self):
        frames = _clean_exchange() + [_frame("send", "task", tid=6)]
        assert "frame-after-close" in self._rules(frames)

    def test_unknown_codec_tag(self):
        frames = [_hello(), _frame("send", "task", tid=1, codec=7)]
        assert "bad-codec" in self._rules(frames)

    def test_codec_1_is_reported(self):
        # Tag 1 was an optional msgpack codec; pickle is the only one.
        frames = [_hello(),
                  _frame("send", "task", tid=1, codec=1),
                  _frame("recv", "done", tid=1, codec=1)]
        assert self._rules(frames) == ["bad-codec", "bad-codec"]

    def test_length_prefix_mismatch(self):
        bad = FrameRecord(direction="send", op="task", tid=1,
                          attempt=0, codec=CODEC_PICKLE,
                          nbytes=10 + H, declared=99)
        assert "length-mismatch" in self._rules([_hello(), bad])

    def test_hello_must_come_first(self):
        frames = [_frame("recv", "done", tid=1)]
        rules = self._rules(frames)
        assert "hello-first" in rules

    def test_duplicate_hello(self):
        frames = [_hello(), _hello()]
        assert "duplicate-hello" in self._rules(frames)

    def test_unmatched_reply(self):
        frames = [_hello(), _frame("recv", "done", tid=42)]
        assert "unmatched-reply" in self._rules(frames)

    def test_duplicate_reply(self):
        frames = [_hello(), _frame("send", "task", tid=4),
                  _frame("recv", "done", tid=4),
                  _frame("recv", "done", tid=4)]
        assert "duplicate-reply" in self._rules(frames)

    def test_duplicate_dispatch_same_attempt(self):
        frames = [_hello(), _frame("send", "task", tid=4, attempt=0),
                  _frame("send", "task", tid=4, attempt=0)]
        assert "duplicate-dispatch" in self._rules(frames)

    def test_task_after_shutdown(self):
        frames = [_hello(), _frame("send", "shutdown"),
                  _frame("send", "task", tid=2)]
        assert "task-after-shutdown" in self._rules(frames)

    def test_unknown_ops(self):
        frames = [_hello(), _frame("send", "reboot"),
                  _frame("recv", "gossip")]
        assert self._rules(frames).count("bad-op") == 2

    def test_fail_without_retryable_verdict(self):
        frames = [_hello(), _frame("send", "task", tid=3),
                  _frame("recv", "fail", tid=3, retryable=None)]
        assert "retryable-missing" in self._rules(frames)

    def test_retryable_true_on_nonretryable_exception(self):
        import numpy as np

        frames = [_hello(), _frame("send", "task", tid=3),
                  _frame("recv", "fail", tid=3, retryable=True,
                         exc=np.linalg.LinAlgError("singular"))]
        assert "retryable-mismatch" in self._rules(frames)

    def test_retryable_false_never_second_guessed(self):
        # Workers may ship a sanitized stand-in exception; a False
        # verdict on a retryable-looking type must NOT be flagged.
        frames = [_hello(), _frame("send", "task", tid=3),
                  _frame("recv", "fail", tid=3, retryable=False,
                         exc=OSError("sanitized")),
                  _frame("send", "task", tid=3, attempt=1),
                  _frame("recv", "done", tid=3, attempt=1)]
        assert self._rules(frames) == []

    def test_connection_without_hello(self):
        frames = [_frame("send", "task", tid=1)]
        assert "no-hello" in self._rules(frames)


class TestCheckFrames:
    def test_walks_every_connection(self):
        rec = DistTraceRecorder()
        rec.frames["w0"] = _clean_exchange()
        rec.frames["w1"] = [_hello(), _frame("recv", "done", tid=8)]
        findings = check_frames(rec)
        assert {f.conn for f in findings} == {"w1"}

    def test_accepts_plain_mapping(self):
        findings = check_frames({"wX": [_frame("recv", "done", tid=1)]})
        assert findings and findings[0].conn == "wX"

    def test_finding_message_is_descriptive(self):
        findings = check_frames({"w2": [_hello(),
                                        _frame("recv", "done", tid=11)]})
        msg = findings[0].message()
        assert "w2" in msg and "unmatched-reply" in msg and "11" in msg
