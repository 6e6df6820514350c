"""Byte-exact outputs of small fixed-seed runs.

Any change to the draw order, the trimness test, the rejection loop, the
constructions or the CSV formatting shows up here as a changed byte.  The
setting-A sweep runs with a small attempt budget so that its two sparsest
grid points exhaust and keep only their completed trials.

The subset-construction goldens pin what the CSVs cannot: the discovery
order of the subsets (which numbers the states of ``ftakit determinize``
documents) and every table entry.  The minimization goldens do the same for
the canonical automaton's block numbering, on the same inputs and on one
where minimization merges states.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ftakit import Fta, GenConfig, Transition, determinize, generate_trim, minimize
from ftakit.density import peak_density
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


def _peak_instance(setting, n, seed):
    config = GenConfig(n=n, alphabet=setting.alphabet, d2=peak_density(n), d0=0.5)
    return generate_trim(config, seed, 0)[0]


def _wide_instance():
    """A 5-state trim automaton spread over 130 states, on both sides of bit 63.

    The other 125 states are unreachable padding, so bit k of a subset mask
    is state id k and the masks need three 64-bit words.
    """
    fta = _peak_instance(Setting.A, 5, 0)
    place = dict(zip(sorted(fta.states), (9, 41, 63, 64, 117)))
    return Fta(
        states=frozenset(range(130)),
        alphabet=fta.alphabet,
        finals=frozenset(place[q] for q in fta.finals),
        transitions=frozenset(
            Transition(t.symbol, tuple(place[a] for a in t.args), place[t.target])
            for t in fta.transitions
        ),
    )


_EMPTY = Fta(states=frozenset(), alphabet=Setting.A.alphabet,
             finals=frozenset(), transitions=frozenset())


def _table_digest(automaton, *extra):
    """sha256 over the int32 tables, then the nullary ids, finals, sink and ``extra``."""
    h = hashlib.sha256()
    for sym in automaton.alphabet.binary:
        table = automaton.binary[sym]
        assert table.dtype == np.int32
        h.update(sym.encode())
        h.update(np.ascontiguousarray(table, dtype="<i4").tobytes())
    tail = (sorted(automaton.nullary.items()), sorted(automaton.finals), automaton.sink,
            *extra)
    h.update(repr(tail).encode())
    return h.hexdigest()


A8_SUBSETS = (
    13, 18, 66, 73, 168, 1, 2, 9, 40, 8, 50, 0, 3, 16, 20, 52, 80, 131, 147,
    128, 4, 36, 130, 32, 34, 38, 54, 77, 136, 170, 26, 27, 58, 137, 64, 68, 72,
    160, 48, 98, 116, 176, 192, 232, 44, 118, 178, 196, 236, 10, 82, 224, 228,
    5, 19, 21, 25, 59, 129, 153, 33, 37, 53, 89, 90, 91, 187, 194, 195, 217,
    17, 132, 146, 164, 24, 41, 6, 22, 138, 81, 86, 154, 165, 186, 45, 237, 57,
    49, 67, 112, 114, 7, 23, 55, 74, 75, 79, 87, 106, 110, 111, 119, 139, 155,
    171, 219, 11, 96, 105, 107, 123, 234, 238, 239, 203, 235, 242, 251, 15, 31,
    100, 109, 127, 56, 83, 210, 218, 250, 162, 51, 84, 12, 76, 78, 102, 226,
    46, 60, 62, 126, 254, 28, 29, 35, 39, 69, 92, 93, 94, 95, 99, 103, 144,
    163, 179, 193, 212, 227, 166, 167, 180, 182, 47, 61, 63, 255, 88, 252, 253,
    65, 113, 145, 177, 240, 115, 183, 211, 244, 246, 149, 181, 201, 70, 198,
    104, 122, 134, 143, 159, 207, 230, 231, 152, 216, 71, 120, 151, 214, 30,
    140, 158, 150, 172, 190, 243, 125, 223, 209, 200, 202, 97, 161, 121, 169,
    185, 133, 142, 174, 175, 191, 85, 117, 184, 233, 208, 43, 249, 124, 188,
    189, 225, 173, 108, 204, 206, 222, 14, 247, 245, 148, 141, 205, 42, 248,
    241, 157, 101, 229, 221, 197, 199, 213, 215, 156, 220,
)
A8_DIGEST = 'b6c93df50a78ccc2eceb51ca719214d4ee728bab66bdb096edbef8d7de9832c5'
B7_SUBSETS = (
    51, 119, 102, 127, 110, 25, 28, 29, 118, 126, 42, 61, 122, 1, 33, 40, 41,
    103, 111, 0, 80, 96, 108, 112, 124, 35, 43, 77, 79, 32, 36, 38, 88, 3, 93,
    94, 95, 106, 21, 53, 87, 109, 125, 46, 104, 116, 27, 57, 59, 117, 100, 2,
    34, 8, 9, 17, 4, 5, 13, 37, 45, 49, 10, 14, 84, 90, 39, 47, 62, 63, 12, 44,
    64, 68, 70, 72, 76, 16, 92, 74, 78, 66, 99, 115, 24, 60, 67, 69, 71, 107,
    123, 7, 19, 31, 48, 50, 85, 23, 55, 56, 120, 15, 6, 11, 26, 58, 98, 65, 97,
    101, 105, 18, 86, 81, 113, 75, 91, 114, 83, 30, 82, 121, 73, 89,
)
B7_DIGEST = 'f88d3be1e1f5d13c654b010f27c8ebc2b25db79259cb42112bcb5c8146e6d570'
WIDE_SUBSETS = (
    9223372036854775808, 512, 0, 2199023255552, 18446744073709551616,
    166153499473114484112975882535043072, 166153499473114484112975882535043584,
    27670116110564327424, 27670116110564327936, 9223374235878031360,
    18446746272732807168, 9223372036854776320, 9223374235878031872,
    18446744073709552128, 27670118309587582976,
    166153499473114484112978081558299136, 166153499473114502559719956244595200,
    166153499473114502559722155267850752, 166153499473114484112978081558298624,
    166153499473114493336347919389818880, 166153499473114502559719956244594688,
    2199023256064, 18446746272732807680, 166153499473114493336350118413074432,
    27670118309587583488, 166153499473114502559722155267850240,
    166153499473114511783091993099370496, 166153499473114511783091993099371008,
    166153499473114511783094192122626048, 166153499473114493336350118413074944,
    166153499473114511783094192122626560, 166153499473114493336347919389819392,
)
WIDE_DIGEST = '360ab15c2f3dddcd5773e821a75d82bfdb8ada729eaed68f3f8b697c7aa291c1'
EMPTY_SUBSETS = (
    0,
)
EMPTY_DIGEST = '2e978bb13b3990d25e716664e043a9fe6f98057de965d5dba2d63065486f9c32'


def _check_dfta(fta, subsets, digest):
    dfta = determinize(fta)
    assert dfta.subsets == subsets
    assert _table_digest(dfta) == digest


def test_determinize_numbering_setting_a_peak():
    _check_dfta(_peak_instance(Setting.A, 8, 3), A8_SUBSETS, A8_DIGEST)


def test_determinize_numbering_setting_b_peak():
    _check_dfta(_peak_instance(Setting.B, 7, 2), B7_SUBSETS, B7_DIGEST)


def test_determinize_numbering_wide_source():
    _check_dfta(_wide_instance(), WIDE_SUBSETS, WIDE_DIGEST)


def test_determinize_numbering_empty_source():
    _check_dfta(_EMPTY, EMPTY_SUBSETS, EMPTY_DIGEST)


# sha256 over each canonical automaton's tables, nullary ids, finals, sink
# and n_states.
A8_CANONICAL_DIGEST = 'fe45e9d78938a37813221bc98584d9ce086336eb9419cf1d825e8514c960cc84'
B7_CANONICAL_DIGEST = '8f0f152e6847972ea6307fae7a018afb3c11f693583522693f2716f517f1e2b8'
WIDE_CANONICAL_DIGEST = '3f283db2232babc70f6a156e73d9d8da83c4b227f41e8194b1cc18a9526da880'
EMPTY_CANONICAL_DIGEST = '3b5a86e2657fbb2395ec489f1af16a6dbe2d45f9da935c1fe083fce5c0b9db40'
MERGING_CANONICAL_DIGEST = 'b0468f0850f1dacba3870809b92648ba6ca5b54d0b2c379064bedae0f39ca2c4'


def _check_canonical(fta, digest):
    canonical = minimize(determinize(fta))
    assert _table_digest(canonical, canonical.n_states) == digest
    return canonical


def test_minimize_numbering_setting_a_peak():
    _check_canonical(_peak_instance(Setting.A, 8, 3), A8_CANONICAL_DIGEST)


def test_minimize_numbering_setting_b_peak():
    _check_canonical(_peak_instance(Setting.B, 7, 2), B7_CANONICAL_DIGEST)


def test_minimize_numbering_wide_source():
    _check_canonical(_wide_instance(), WIDE_CANONICAL_DIGEST)


def test_minimize_numbering_empty_source():
    _check_canonical(_EMPTY, EMPTY_CANONICAL_DIGEST)


def test_minimize_numbering_merging_instance():
    # 87 subset states, 61 canonical blocks.
    fta = _peak_instance(Setting.A, 8, 23)
    assert determinize(fta).n_states == 87
    assert _check_canonical(fta, MERGING_CANONICAL_DIGEST).n_states == 61
