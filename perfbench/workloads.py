"""Workload table shared by run.py and the study process.

Every workload is a case-1 convergence study in ``lift`` mode with the same
indicator grid and sampling (``NHp=10``, ``n_xi=3``, ``sigma_thres=30``,
``i_max=1``); the knobs below move the cost between layers:

* ``train-narrow``: the acceptance ``MINI`` knobs at half their m range. Many
  outer iterations over a slowly growing, mostly cached snapshot set, so the
  training indicator dominates and transverse solves and POD stay small.
* ``train-broad``: the same grids with aggressive refinement. Most snapshot
  requests are fresh solves and the final POD runs over ~2.9k snapshots, so
  transverse assembly/solve and POD dominate.
* ``fine-grid``: the 800x400 production resolution. The reference LU and the
  first estimator call (lazy LU of the V-Gram) dominate, the transverse
  systems are the largest of any workload, and training is light.
"""

COMMON = dict(case=1, mode="lift", NHp=10, n_xi=3, sigma_thres=30.0, i_max=1)

WORKLOADS = {
    "train-narrow": dict(NH=160, nh=80, qbar=2, g0=2, theta=0.02, m_max=20),
    "train-broad": dict(NH=160, nh=80, qbar=2, g0=2, theta=0.4, m_max=5),
    "fine-grid": dict(NH=800, nh=400, qbar=1, g0=4, theta=0.1, m_max=8),
}

# One BLAS/OpenMP thread in every study process: at most nproc on any host,
# and the seeded CSV bytes depend on the thread count, so pinning it keeps
# sha256 comparisons like-for-like.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_config_kwargs(name, seed, out):
    """Keyword arguments of ``skewlift.cli.RunConfig`` for one study."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of "
                       f"{sorted(WORKLOADS)}")
    return dict(COMMON, **WORKLOADS[name], seed=int(seed), out=str(out))
