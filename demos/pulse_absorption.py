#!/usr/bin/env python3
"""Watch a spinor pulse hit the absorbing layer.

Runs the split-field system twice on the same grid -- once with the
absorbing profiles switched on, once with plain outflow faces -- and
prints the trace norm over time side by side.  The absorbed run decays
markedly faster once the wave enters the layer.

Usage:  python3 demos/pulse_absorption.py [n] [sigma0]
"""

import sys

import numpy as np

from paulipml.geometry import BoxDomain
from paulipml.stretching import AbsorptionProfile
from paulipml.timedomain import (FrameSeries, Grid, SimConfig,
                                 gaussian_source, run)

n = int(sys.argv[1]) if len(sys.argv) > 1 else 17
sigma0 = float(sys.argv[2]) if len(sys.argv) > 2 else 8.0

box = BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)
grid = Grid(box, (n, n, n))
source = gaussian_source(grid, width=0.15, t_off=1.0)
config = SimConfig(grid, cfl=0.5, T=4.0, stride=4)

# each run streams the trace norm of its frames and keeps no frame
norms = {}
for label, profiles in (
        ("absorbing", tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=sigma0)
                            for _ in range(3))),
        ("bare", tuple(AbsorptionProfile.zero(1.0) for _ in range(3)))):
    norms[label] = FrameSeries(grid.norm)
    rec = run(config, profiles, source, reducers=[norms[label]])
    print(f"{label}: {len(rec.times)} frames, dt = {rec.dt:.4f}")

norm_a, norm_b = norms["absorbing"].values, norms["bare"].values
print(f"\n{'t':>6}  {'|s| absorbing':>14}  {'|s| bare':>10}")
for t, na, nb in zip(norms["absorbing"].times, norm_a, norm_b):
    bar = "#" * int(40 * na / max(norm_a))
    print(f"{t:6.2f}  {na:14.5e}  {nb:10.3e}  {bar}")

final_a, final_b = norm_a[-1], norm_b[-1]
print(f"\nfinal trace norm: absorbing {final_a:.3e} vs bare {final_b:.3e}"
      f"  (ratio {final_a / final_b:.3f})")
