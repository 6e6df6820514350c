"""Byte-exact outputs of small fixed-seed runs.

Any change to the draw order, the trimness test, the rejection loop, the
constructions or the CSV formatting shows up here as a changed byte.  The
setting-A sweep runs with a small attempt budget so that its two sparsest
grid points exhaust and keep only their completed trials.
"""

from __future__ import annotations

from ftakit.experiment import (
    Setting,
    run_sweep,
    sweep_csv,
    table_trim,
    trim_csv,
)

SWEEP_A4 = (
    'setting,n,x,d2,trials,trim_attempts,mean_det_size,mean_canonical_size\n'
    'A,4,0,1.0,5,5,2.0,1.2\n'
    'A,4,1,0.7012590009019113,5,5,3.2,1.6\n'
    'A,4,2,0.4917641863459469,5,7,2.0,1.6\n'
    'A,4,3,0.34485406199630003,5,6,4.8,4.0\n'
    'A,4,4,0.24183201497249118,5,5,4.4,3.4\n'
    'A,4,5,0.1695868772057052,5,16,7.0,6.4\n'
    'A,4,6,0.11892432407534793,5,19,5.0,4.0\n'
    'A,4,7,0.08339675268401361,5,21,3.4,2.8\n'
    'A,4,8,0.058482723465655195,5,25,5.0,4.4\n'
    'A,4,9,0.04101153622754812,3,29,3.0,1.6666666666666667\n'
    'A,4,10,0.028759708920382935,2,34,4.5,4.5\n'
)

SWEEP_B5 = (
    'setting,n,x,d2,trials,trim_attempts,mean_det_size,mean_canonical_size\n'
    'B,5,0,1.0,4,4,2.0,1.0\n'
    'B,5,1,0.6423736986013805,4,4,4.25,1.0\n'
    'B,5,2,0.41264396865481723,4,4,2.5,1.25\n'
    'B,5,3,0.2650716323503471,4,6,5.25,3.75\n'
    'B,5,4,0.1702750448671978,4,5,17.0,15.75\n'
    'B,5,5,0.10938021035085786,4,4,19.5,19.5\n'
    'B,5,6,0.07026297027687758,4,5,25.0,25.0\n'
    'B,5,7,0.0451350840914767,4,10,15.75,15.75\n'
    'B,5,8,0.028993590904526224,4,22,6.75,6.5\n'
    'B,5,9,0.01862472022507585,4,35,4.75,4.5\n'
    'B,5,10,0.011964030416397913,4,76,7.0,6.75\n'
)

TRIM_B = (
    'd2,n,trials,trim,ratio,ci_half_width\n'
    '0.05,2,50,6,0.12,0.0900747422977163\n'
    '0.05,4,50,10,0.2,0.11087434329005066\n'
    '0.05,7,50,42,0.84,0.10161801415103525\n'
    '0.5,2,50,27,0.54,0.1381487198637758\n'
    '0.5,4,50,47,0.94,0.06582799404508695\n'
    '0.5,7,50,48,0.96,0.05431711332536002\n'
)


def test_sweep_csv_setting_a_n4():
    sweep = run_sweep(Setting.A, 4, 2024, steps=10, trials=5, max_attempts=20,
                      workers=1)
    assert sweep_csv(sweep.records) == SWEEP_A4


def test_sweep_csv_setting_b_n5():
    sweep = run_sweep(Setting.B, 5, 2024, steps=10, trials=4, workers=1)
    assert sweep_csv(sweep.records) == SWEEP_B5


def test_trim_csv_small_grid():
    cells = table_trim(2024, trials=50, n_values=(2, 4, 7), densities=(0.05, 0.5),
                       include_blank=True, workers=1)
    assert trim_csv(cells) == TRIM_B
