"""Population training with determinant-based diversity pressure.

The package splits into five layers:

* distance/kernel machinery (``kernels``, ``detops``) — policy similarity
  kernels, determinant objectives, and log-det gradient ascent;
* policies and learning (``nets``, ``optim``, ``rl``) — numpy MLP policies
  with manual backprop, Adam, and a clipped-surrogate policy-gradient loop;
* environments (``toy``, ``dogfight``) — a 2-D navigation task and a 3-D
  pursuit task, both with behavior descriptors for archiving;
* archives and selection (``archive``, ``selection``) — a descriptor grid,
  a top-k fitness queue, bandit arm selection, clustering selection;
* orchestration (``trainers``, ``report``, ``cli``) — the training engine
  for all six population variants plus deterministic reporting.
"""

from .archive import (ArchiveEntry, FitnessQueue, GridArchive, bd_to_cell, qd_metrics,
                      save_archive)
from .detops import (NotPositiveDefinite, cholesky, det_via_cholesky,
                     diversity_ascent, spd_inverse)
from .dogfight import DogfightConfig, DogfightEnv
from .kernels import StateBatch, kernel_backward, kernel_forward
from .nets import (ActionSpace, NormalizedPolicy, Policy, ValueFunction,
                   load_policy, save_policy)
from .optim import Adam
from .report import generate_report
from .rl import (Learner, PPOConfig, RolloutBuffer, RunningStat, collect_rollout,
                 evaluate, gae, ppo_update)
from .selection import (BanditState, bandit_update, clustering_selection,
                        thompson_select, ucb_select)
from .toy import ToyConfig, ToyEnv
from .trainers import TrainerConfig, run_training, validate_config

__version__ = "0.1.0"

__all__ = [
    "Adam", "ActionSpace", "ArchiveEntry", "BanditState", "DogfightConfig",
    "DogfightEnv", "FitnessQueue", "GridArchive", "Learner", "NormalizedPolicy",
    "NotPositiveDefinite", "PPOConfig", "Policy", "RolloutBuffer", "RunningStat",
    "StateBatch", "ToyConfig",
    "ToyEnv", "TrainerConfig", "ValueFunction",
    "bandit_update", "bd_to_cell", "cholesky", "clustering_selection",
    "collect_rollout", "det_via_cholesky", "diversity_ascent", "evaluate",
    "gae", "generate_report", "kernel_backward", "kernel_forward",
    "load_policy", "ppo_update", "qd_metrics",
    "run_training", "save_archive", "save_policy", "spd_inverse",
    "thompson_select", "ucb_select", "validate_config",
]
