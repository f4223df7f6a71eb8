"""Legacy setuptools shim (the runtime environment lacks the `wheel` package,
so PEP-517 editable builds are unavailable; metadata lives here)."""
from setuptools import find_packages, setup

setup(
    name="kreach-repro",
    description="Reproduction of K-Reach: who is in your small world (VLDB'12)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.25"],
    extras_require={
        # Optional compiled kernel tier (repro/native.py).  Everything
        # works without it on the numpy fallback; with it the hot
        # bitset/BFS/join kernels JIT to GIL-releasing machine code:
        #   pip install kreach-repro[native]
        "native": ["numba>=0.59"],
    },
    entry_points={
        "console_scripts": ["kreach-bench=repro.cli:main"],
    },
)
