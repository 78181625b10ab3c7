"""The checkpoint format against a committed golden file.

`data/checkpoint_golden.bin` is :func:`~tsimg.dataio.save_checkpoint` of a
small float64 model draw (models._draw_params). Loading it must give that
draw bit for bit, and saving the draw must give the file's bytes, so a
change to the zip container or to numpy's .npy header, such as a test leg
on another numpy or Python version, shows here as a changed byte.

Regenerate it (only when a change is meant to move the checkpoint format)
with ``PYTHONPATH=src python tests/test_checkpoint_golden.py``.
"""

from pathlib import Path

import numpy as np

from tsimg.dataio import load_checkpoint, save_checkpoint
from tsimg.models import ModelConfig, _draw_params

GOLDEN = Path(__file__).parent / "data" / "checkpoint_golden.bin"
CFG = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=8, patch_size=4,
                  embed_dim=4, num_heads=1, horizon=2)


def _params() -> dict:
    return _draw_params(CFG, seed=26)


def test_golden_checkpoint_loads_bitwise():
    want, got = _params(), load_checkpoint(str(GOLDEN))
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k].dtype == np.float64 and got[k].shape == v.shape, k
        assert got[k].tobytes() == v.tobytes(), k


def test_saving_the_golden_draw_reproduces_its_bytes(tmp_path):
    save_checkpoint(_params(), str(tmp_path / "ck.bin"))
    assert (tmp_path / "ck.bin").read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    save_checkpoint(_params(), str(GOLDEN))
    print(f"wrote {GOLDEN}")
