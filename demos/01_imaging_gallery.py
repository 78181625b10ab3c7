"""Render one synthetic series with every imaging method.

Writes a 16-bit PGM per method into demos/out/ and prints the image
geometry, so you can eyeball how each transform reshapes the same signal.
"""

from pathlib import Path

from tsimg.dataio import write_pgm
from tsimg.imaging import detect_period
from tsimg.pipeline import image_for_method
from tsimg.series import gen_periodic

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

x = gen_periodic(period=24, length=480, waveform="composite", seed=0,
                 noise_std=0.05)
est = detect_period(x)
print(f"series: T={x.size}, FFT-detected segment length L={est.chosen_L}")

RENDER_ARGS = {
    "lineplot": {},
    "uvh": {"L": est.chosen_L},
    "mvh": {},
    "gaf": {},
    "rp": {"embed_dim": 2, "delay": 1},
    "stft": {"window_len": 64, "hop": 16},
    "wavelet": {"num_scales": 32},
    "filterbank": {"window_len": 64, "hop": 16, "n_filters": 16},
}

for method, kw in RENDER_ARGS.items():
    img = image_for_method(method, x, **kw)
    path = OUT / f"{method}.pgm"
    write_pgm(img, str(path))
    print(f"  {method:<10} -> {img.shape[0]:>3} x {img.shape[1]:<3}  {path.name}")

print(f"\nimages written to {OUT}/ (any PGM viewer will open them)")
