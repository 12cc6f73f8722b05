"""The scripts under scripts/ run end to end as child processes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *argv, cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                            cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_demo_corpus_and_codec_demo_run(tmp_path):
    corpus, demo = tmp_path / "corpus", tmp_path / "demo"
    _run("make_demo_corpus.py", str(corpus), cwd=tmp_path)
    assert len((corpus / "train_manifest.txt").read_text().splitlines()) == 20
    _run("run_codec_demo.py", "--train-count", "4", "--outdir", str(demo), cwd=tmp_path)
    assert (demo / "r1000.mvqc").is_file()
    assert (demo / "r2000.wav").is_file()
