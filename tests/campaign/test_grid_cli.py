"""``repro grid --vvd``: a wiped model registry re-opens the point steps."""

from __future__ import annotations

import shutil

from repro.campaign.cli import main
from repro.campaign.grid import GridSpec, register_grid


def test_wiped_registry_forces_retraining(tmp_path, capsys):
    """A done manifest must not claim checkpoint hits over a wiped
    --model-dir: every VVD point step re-executes."""
    register_grid(
        GridSpec(
            name="grid-cli-vvd",
            description="two-point VVD grid of the CLI tests",
            base="smoke",
            axes=(("snr_db", (6.0, 12.0)),),
        ),
        replace=True,
    )
    model_dir = tmp_path / "models"
    argv = ["grid", "--grid", "grid-cli-vvd", "--vvd"]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    argv += ["--model-dir", str(model_dir)]
    assert main(argv) == 0
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 executed, 3 resumed" in out
    assert "no models retrained (100% checkpoint hits)" in out

    shutil.rmtree(model_dir)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "3 executed, 0 resumed" in out
    assert "2 model(s) trained" in out
    assert "no measurement sets regenerated (100% cache hits)" in out
    assert "no models retrained" not in out
