"""Packaging entry point.

numpy policy: the library is pure Python and installs without any
third-party runtime dependency.  ``numpy`` is an *optional* accelerator,
declared under the ``[fast]`` extra:

* the work-rate kernels (``repro.calibration.workrate``, behind
  ``wavebench workrate``) need it for their micro-benchmarks;
* the analytic backend prices batches through ``repro.core.model_vec``,
  which runs the model's equations on numpy columns, and degrades
  gracefully without it - it then prices each point through the scalar
  model, with identical numbers, just without the batch speed.

Nothing else imports numpy, and every ``wavebench`` subcommand but
``workrate`` runs without it.  ``tests/test_model_vec.py`` pins this by
running the CLI and a mixed batch in an interpreter where numpy cannot be
imported, and the CI ``no-numpy`` job runs the model, conformance,
backend, validation, scaling, CLI and simulator-pin suites without numpy
installed.
"""

from setuptools import find_packages, setup

setup(
    name="repro-wavebench",
    description=(
        "Reusable LogGP performance model of pipelined wavefront "
        "computations (Mudalige, Vernon & Jarvis, IPDPS 2008 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],  # pure stdlib at runtime - see the numpy policy above
    extras_require={
        "fast": ["numpy"],  # column batches + work-rate kernels
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={"console_scripts": ["wavebench=repro.cli:main"]},
)
