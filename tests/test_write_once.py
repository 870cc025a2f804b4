"""``reporting.write_once``: outputs are append-only and never partial.

A report is written to a temporary file beside its target and linked into
place only if the target is absent, so a writer that fails or is stopped
halfway leaves no target (and no temporary file), an identical existing
file is accepted and a different one raises ``FileExistsError``.
"""

import os
import sys
import threading

import pytest

from carleman import reporting
from carleman.cli import main
from carleman.reporting import write_once

TEXT = "x" * 100_000 + "\n"


def test_a_write_that_fails_halfway_leaves_no_target(tmp_path):
    # the encoder fails after the first 100 kB have reached the file
    target = tmp_path / "report.json"
    with pytest.raises(UnicodeEncodeError):
        write_once(target, TEXT + "\ud800")
    assert list(tmp_path.iterdir()) == []
    write_once(target, TEXT)
    assert target.read_text(encoding="utf-8") == TEXT
    assert list(tmp_path.iterdir()) == [target]


def test_a_writer_stopped_before_the_link_leaves_no_target(tmp_path, monkeypatch):
    def stopped(src, dst):
        raise KeyboardInterrupt

    target = tmp_path / "report.json"
    monkeypatch.setattr(reporting.os, "link", stopped)
    with pytest.raises(KeyboardInterrupt):
        write_once(target, TEXT)
    assert list(tmp_path.iterdir()) == []


def test_an_identical_existing_file_passes(tmp_path):
    target = tmp_path / "sub" / "report.json"
    write_once(target, TEXT)
    write_once(target, TEXT)
    assert target.read_text(encoding="utf-8") == TEXT
    assert list(target.parent.iterdir()) == [target]


def test_a_different_existing_file_raises(tmp_path):
    target = tmp_path / "report.json"
    target.write_text(TEXT[:100], encoding="utf-8")
    with pytest.raises(FileExistsError, match="outputs are append-only"):
        write_once(target, TEXT)
    assert target.read_text(encoding="utf-8") == TEXT[:100]
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("same", [True, False], ids=["same-text", "other-text"])
def test_racing_writers_leave_one_whole_file(tmp_path, same):
    # three writers on two cores, switching threads as often as possible
    texts = [TEXT, TEXT, TEXT if same else TEXT.replace("x", "y")]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(20):
            target = tmp_path / f"report-{attempt}.json"
            barrier = threading.Barrier(len(texts), timeout=60)
            errors = []

            def writer(text):
                barrier.wait()
                try:
                    write_once(target, text)
                except FileExistsError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(text,)) for text in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            written = target.read_text(encoding="utf-8")
            assert written in texts
            assert len(errors) == sum(text != written for text in texts)
    finally:
        sys.setswitchinterval(old)
    assert sorted(os.listdir(tmp_path)) == sorted(f"report-{i}.json" for i in range(20))


def test_a_rerun_of_a_command_passes_and_a_damaged_report_is_refused(tmp_path):
    out = tmp_path / "out"
    argv = ["ckn", "--k-max", "2", "--n-max", "3", "--out", str(out)]
    assert main(argv) == 0
    (report,) = out.iterdir()
    assert main(argv) == 0
    report.write_bytes(report.read_bytes()[:100])
    assert main(argv) == 3
    assert list(out.iterdir()) == [report]
