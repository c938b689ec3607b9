"""Differential fuzzing and statistical verification (``repro.qa``).

The rest of the library answers queries; this package checks that the
answers are *right* — on adversarially random inputs, against an
independent brute-force oracle, and with noise whose distribution is
statistically verified against the calibration the privacy proof promises.

Four cooperating pieces:

* :mod:`repro.qa.generator` — a deterministic, seed-addressable workload
  generator: random schemas (mixed arities, finite domains, private/public
  splits), random databases (uniform and skewed, with collision-rich join
  keys), and random conjunctive queries (self-joins, predicates,
  projections), each bundled with a designated neighbor edit.
* :mod:`repro.qa.oracle` — a tiny reference engine: naive nested-loop join
  counting and exhaustive-neighbor local sensitivity.  It shares *no code*
  with the production engines, which is what makes the comparison a real
  differential test.
* :mod:`repro.qa.runner` — the differential runner: production engine ==
  oracle for counts, boundary multiplicities and sensitivity profiles, plus the smoothness / ``RS ≥ LS`` invariants the
  paper's proof rests on, checked on generated neighbor pairs.  Every
  failure carries a self-contained replay snippet.
* :mod:`repro.qa.calibration` — the statistical verifier: seeded releases
  are drawn at query, service and batch level (including through a
  ``state_dir`` crash/replay cycle) and tested for goodness of fit against
  the exact noise law (Laplace with scale ``GS/ε`` for the global method,
  the exponent-4 general Cauchy distribution with scale ``S(I)/β``
  otherwise).
* :mod:`repro.qa.cluster` — the cluster verifier: fuzz workloads are
  replayed through a live multi-worker prefork server (``serve
  --workers``) in ``charge-seq`` noise mode and every release must be
  bitwise identical to an in-process service with the same seed — any
  cross-process ledger or ordinal bug shows up as a diverging float.

The ``repro-dp fuzz`` CLI subcommand and ``tests/test_qa_fuzz.py`` drive
these; :func:`repro.qa.replay.replay_case` re-runs any failed check from
its ``(seed, case, check)`` coordinates.
"""

from repro.qa.calibration import CalibrationReport, verify_calibration
from repro.qa.cluster import ClusterReport, verify_cluster_serve
from repro.qa.generator import FuzzCase, RelationSpec, WorkloadGenerator
from repro.qa.oracle import oracle_count, oracle_local_sensitivity
from repro.qa.replay import replay_case
from repro.qa.runner import CHECKS, DifferentialRunner, FuzzFailure, FuzzReport

__all__ = [
    "CHECKS",
    "CalibrationReport",
    "ClusterReport",
    "DifferentialRunner",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "RelationSpec",
    "WorkloadGenerator",
    "oracle_count",
    "oracle_local_sensitivity",
    "replay_case",
    "verify_calibration",
    "verify_cluster_serve",
]
