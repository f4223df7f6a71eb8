"""The paper's published evaluation numbers (Tables 3–5, 7–9).

Stored verbatim so the benchmark harness can print paper-vs-measured
columns (README.md, "Benchmarks", lists the experiments).  ``None`` encodes
the paper's "-" entries (3-hop failing to build within time/memory).

All times are in **milliseconds** as published (the paper's hardware: one
core of an Intel Q9400 @ 2.66 GHz, C++); sizes are in **MB**.  Absolute
magnitudes are not comparable to this pure-Python reproduction — the
harness compares *ratios and rankings*.
"""

from __future__ import annotations

__all__ = [
    "CONSTRUCTION_MS",
    "INDEX_SIZE_MB",
    "QUERY_MS_1M",
    "KREACH_QUERY_MS_1M",
    "MU_BFS_MS_1M",
    "MU_DIST_MS_1M",
    "CASE_PERCENTAGES",
    "COVER_SIZES",
    "RANKINGS",
]

#: Table 3 — index construction time (ms): {dataset: {index: ms}}.
CONSTRUCTION_MS: dict[str, dict[str, float | None]] = {
    "AgroCyc": {"n-reach": 27.71, "PTree": 129.14, "3-hop": None, "GRAIL": 10.86, "PWAH": 4.40},
    "aMaze": {"n-reach": 18.09, "PTree": 476.69, "3-hop": 959821, "GRAIL": 2.92, "PWAH": 7.01},
    "Anthra": {"n-reach": 24.08, "PTree": 123.43, "3-hop": None, "GRAIL": 10.74, "PWAH": 3.90},
    "ArXiv": {"n-reach": 352.51, "PTree": 6319.66, "3-hop": None, "GRAIL": 10.58, "PWAH": 111.00},
    "CiteSeer": {"n-reach": 245.46, "PTree": 403.35, "3-hop": 44328, "GRAIL": 16.04, "PWAH": 93.26},
    "Ecoo": {"n-reach": 26.70, "PTree": 129.74, "3-hop": None, "GRAIL": 10.88, "PWAH": 4.47},
    "GO": {"n-reach": 106.84, "PTree": 110.83, "3-hop": 11914, "GRAIL": 6.50, "PWAH": 19.57},
    "Human": {"n-reach": 67.78, "PTree": 397.05, "3-hop": None, "GRAIL": 41.45, "PWAH": 6.71},
    "Kegg": {"n-reach": 21.01, "PTree": 537.17, "3-hop": None, "GRAIL": 2.92, "PWAH": 6.77},
    "Mtbrv": {"n-reach": 20.24, "PTree": 98.13, "3-hop": None, "GRAIL": 7.92, "PWAH": 3.86},
    "Nasa": {"n-reach": 57.93, "PTree": 62.22, "3-hop": 13739, "GRAIL": 4.51, "PWAH": 10.54},
    "PubMed": {"n-reach": 166.23, "PTree": 437.16, "3-hop": 73243, "GRAIL": 11.63, "PWAH": 70.63},
    "Vchocyc": {"n-reach": 19.77, "PTree": 97.34, "3-hop": None, "GRAIL": 7.60, "PWAH": 4.00},
    "Xmark": {"n-reach": 44.50, "PTree": 136.87, "3-hop": 68219, "GRAIL": 4.96, "PWAH": 11.53},
    "YAGO": {"n-reach": 32.47, "PTree": 282.45, "3-hop": 5006, "GRAIL": 9.47, "PWAH": 36.49},
}

#: Table 4 — index size (MB): {dataset: {index: MB}}.
INDEX_SIZE_MB: dict[str, dict[str, float | None]] = {
    "AgroCyc": {"n-reach": 0.39, "PTree": 0.29, "3-hop": None, "GRAIL": 0.19, "PWAH": 0.44},
    "aMaze": {"n-reach": 0.13, "PTree": 0.09, "3-hop": 5.41, "GRAIL": 0.06, "PWAH": 0.22},
    "Anthra": {"n-reach": 0.36, "PTree": 0.29, "3-hop": None, "GRAIL": 0.19, "PWAH": 0.42},
    "ArXiv": {"n-reach": 1.61, "PTree": 0.38, "3-hop": None, "GRAIL": 0.09, "PWAH": 2.46},
    "CiteSeer": {"n-reach": 3.17, "PTree": 0.45, "3-hop": 0.20, "GRAIL": 0.16, "PWAH": 3.08},
    "Ecoo": {"n-reach": 0.40, "PTree": 0.29, "3-hop": None, "GRAIL": 0.19, "PWAH": 0.43},
    "GO": {"n-reach": 1.28, "PTree": 0.20, "3-hop": 0.11, "GRAIL": 0.10, "PWAH": 0.63},
    "Human": {"n-reach": 1.17, "PTree": 0.89, "3-hop": None, "GRAIL": 0.59, "PWAH": 1.25},
    "Kegg": {"n-reach": 0.16, "PTree": 0.08, "3-hop": None, "GRAIL": 0.06, "PWAH": 0.23},
    "Mtbrv": {"n-reach": 0.29, "PTree": 0.22, "3-hop": None, "GRAIL": 0.15, "PWAH": 0.34},
    "Nasa": {"n-reach": 0.66, "PTree": 0.13, "3-hop": 0.06, "GRAIL": 0.09, "PWAH": 0.40},
    "PubMed": {"n-reach": 2.03, "PTree": 0.50, "3-hop": 0.29, "GRAIL": 0.14, "PWAH": 2.80},
    "Vchocyc": {"n-reach": 0.28, "PTree": 0.22, "3-hop": None, "GRAIL": 0.14, "PWAH": 0.33},
    "Xmark": {"n-reach": 0.49, "PTree": 0.13, "3-hop": 0.43, "GRAIL": 0.09, "PWAH": 0.45},
    "YAGO": {"n-reach": 0.48, "PTree": 0.22, "3-hop": 0.09, "GRAIL": 0.10, "PWAH": 0.96},
}

#: Table 5 — total time for 1M random reachability queries (ms).
QUERY_MS_1M: dict[str, dict[str, float | None]] = {
    "AgroCyc": {"n-reach": 5.50, "PTree": 17.74, "3-hop": None, "GRAIL": 135.14, "PWAH": 15.68},
    "aMaze": {"n-reach": 14.39, "PTree": 20.68, "3-hop": 28404.20, "GRAIL": 2982.61, "PWAH": 39.71},
    "Anthra": {"n-reach": 5.39, "PTree": 17.66, "3-hop": None, "GRAIL": 121.12, "PWAH": 14.92},
    "ArXiv": {"n-reach": 87.86, "PTree": 75.28, "3-hop": None, "GRAIL": 2032.96, "PWAH": 311.55},
    "CiteSeer": {"n-reach": 115.64, "PTree": 58.28, "3-hop": 1225.25, "GRAIL": 268.33, "PWAH": 339.23},
    "Ecoo": {"n-reach": 5.47, "PTree": 17.73, "3-hop": None, "GRAIL": 154.41, "PWAH": 15.77},
    "GO": {"n-reach": 27.00, "PTree": 35.77, "3-hop": 455.83, "GRAIL": 113.46, "PWAH": 59.10},
    "Human": {"n-reach": 5.95, "PTree": 28.48, "3-hop": None, "GRAIL": 300.23, "PWAH": 13.35},
    "Kegg": {"n-reach": 16.27, "PTree": 22.51, "3-hop": None, "GRAIL": 4030.89, "PWAH": 44.52},
    "Mtbrv": {"n-reach": 5.47, "PTree": 17.48, "3-hop": None, "GRAIL": 104.15, "PWAH": 16.12},
    "Nasa": {"n-reach": 18.26, "PTree": 23.62, "3-hop": 359.16, "GRAIL": 64.27, "PWAH": 43.94},
    "PubMed": {"n-reach": 39.31, "PTree": 103.44, "3-hop": 1198.70, "GRAIL": 239.40, "PWAH": 368.44},
    "Vchocyc": {"n-reach": 5.49, "PTree": 17.72, "3-hop": None, "GRAIL": 103.23, "PWAH": 16.13},
    "Xmark": {"n-reach": 14.49, "PTree": 22.02, "3-hop": 491.44, "GRAIL": 245.11, "PWAH": 69.78},
    "YAGO": {"n-reach": 106.25, "PTree": 42.32, "3-hop": 705.09, "GRAIL": 116.43, "PWAH": 137.09},
}

#: Table 7 — k-reach total query time (ms, 1M queries) for k = 2,4,6,µ,n.
KREACH_QUERY_MS_1M: dict[str, dict[str, float]] = {
    "AgroCyc": {"2": 5.47, "4": 5.49, "6": 5.47, "mu": 5.56, "n": 5.50},
    "aMaze": {"2": 14.38, "4": 14.42, "6": 14.40, "mu": 14.39, "n": 14.39},
    "Anthra": {"2": 5.43, "4": 5.36, "6": 5.36, "mu": 5.33, "n": 5.39},
    "ArXiv": {"2": 90.08, "4": 84.64, "6": 87.66, "mu": 88.84, "n": 87.86},
    "CiteSeer": {"2": 116.44, "4": 117.08, "6": 107.72, "mu": 116.50, "n": 115.64},
    "Ecoo": {"2": 5.48, "4": 5.47, "6": 5.50, "mu": 5.43, "n": 5.47},
    "GO": {"2": 26.99, "4": 27.00, "6": 26.97, "mu": 27.00, "n": 27.00},
    "Human": {"2": 5.98, "4": 6.02, "6": 6.09, "mu": 6.03, "n": 5.95},
    "Kegg": {"2": 16.16, "4": 16.32, "6": 16.22, "mu": 16.12, "n": 16.27},
    "Mtbrv": {"2": 5.49, "4": 5.48, "6": 5.47, "mu": 5.46, "n": 5.46},
    "Nasa": {"2": 18.26, "4": 18.30, "6": 18.24, "mu": 18.23, "n": 18.26},
    "PubMed": {"2": 39.25, "4": 39.37, "6": 39.52, "mu": 39.36, "n": 39.31},
    "Vchocyc": {"2": 5.49, "4": 5.48, "6": 5.50, "mu": 5.46, "n": 5.49},
    "Xmark": {"2": 14.38, "4": 14.41, "6": 14.46, "mu": 14.42, "n": 14.49},
    "YAGO": {"2": 113.01, "4": 106.41, "6": 105.85, "mu": 101.67, "n": 106.25},
}

#: Table 7 — µ-BFS total query time (ms, 1M queries).
MU_BFS_MS_1M: dict[str, float] = {
    "AgroCyc": 6666.61, "aMaze": 9145.64, "Anthra": 6662.71, "ArXiv": 17645.10,
    "CiteSeer": 7016.10, "Ecoo": 6667.16, "GO": 6794.95, "Human": 6756.70,
    "Kegg": 9525.80, "Mtbrv": 6656.73, "Nasa": 6852.91, "PubMed": 7301.46,
    "Vchocyc": 6678.73, "Xmark": 7145.60, "YAGO": 6723.07,
}

#: Table 7 — µ-dist total query time (ms, 1M queries).
MU_DIST_MS_1M: dict[str, float] = {
    "AgroCyc": 81.32, "aMaze": 193.71, "Anthra": 73.47, "ArXiv": 30391.09,
    "CiteSeer": 1392.21, "Ecoo": 78.18, "GO": 673.48, "Human": 45.42,
    "Kegg": 206.25, "Mtbrv": 90.73, "Nasa": 554.70, "PubMed": 1079.70,
    "Vchocyc": 90.62, "Xmark": 132.90, "YAGO": 586.10,
}

#: Table 8 — percentage of 1M random queries per Algorithm-2 case.
CASE_PERCENTAGES: dict[str, tuple[float, float, float, float]] = {
    "AgroCyc": (0.10, 2.98, 2.96, 93.97),
    "aMaze": (1.65, 11.19, 11.23, 75.93),
    "Anthra": (0.08, 2.73, 2.79, 94.40),
    "ArXiv": (41.94, 22.79, 22.88, 12.38),
    "CiteSeer": (19.15, 24.62, 24.62, 31.61),
    "Ecoo": (0.10, 3.02, 3.05, 93.83),
    "GO": (19.18, 24.63, 24.66, 31.53),
    "Human": (0.01, 0.94, 0.96, 98.09),
    "Kegg": (2.92, 14.17, 14.21, 68.71),
    "Mtbrv": (0.15, 3.66, 3.67, 92.52),
    "Nasa": (10.80, 22.12, 22.03, 45.05),
    "PubMed": (15.12, 23.77, 23.71, 37.40),
    "Vchocyc": (0.15, 3.65, 3.68, 92.53),
    "Xmark": (4.06, 16.08, 16.10, 63.75),
    "YAGO": (1.55, 10.96, 10.89, 76.60),
}

#: Table 9 — vertex-cover vs 2-hop-cover sizes and query times (ms, 1M).
#: {dataset: (|VC|, |2-hop VC|, µ-reach ms, (2,µ)-reach ms)}
COVER_SIZES: dict[str, tuple[int, int, float, float]] = {
    "AgroCyc": (389, 298, 5.56, 21.55),
    "aMaze": (477, 272, 14.39, 38.70),
    "Anthra": (357, 278, 5.33, 21.32),
    "Ecoo": (396, 302, 5.43, 21.56),
    "Kegg": (618, 343, 16.12, 41.55),
    "Mtbrv": (367, 287, 5.46, 21.66),
    "Nasa": (1841, 1223, 18.23, 39.48),
    "Vchocyc": (362, 277, 5.46, 21.71),
}

#: Table 6 — overall 1-to-5 rankings (1 best).
RANKINGS: dict[str, dict[str, int]] = {
    "indexing_time": {"n-reach": 3, "PTree": 4, "3-hop": 5, "GRAIL": 1, "PWAH": 2},
    "index_size": {"n-reach": 3, "PTree": 2, "3-hop": 5, "GRAIL": 1, "PWAH": 4},
    "query_time": {"n-reach": 1, "PTree": 2, "3-hop": 5, "GRAIL": 4, "PWAH": 3},
}
