"""The paper's primary contribution: the controlled comparative study."""

from .architecture_search import (FIG4_GRID, GridCell, HeatmapResult,
                                  flash_boost_table, run_grid_search)
from .evolution import (BRANCHES, MAJOR_RELEASES, ModelRelease,
                        dominant_branch, releases_per_year)
from .experiments import (EXPERIMENTS, Claim, ExperimentContext,
                          ExperimentResult, ExperimentSpec,
                          list_experiments, reproduce, reproduce_all)
from .guidance import LayoutRecommendation, best_layout, recommend_layouts
from .observations import (ObservationCheck, check_all, observation_1,
                           observation_2, observation_3, observation_4,
                           observation_5)
from .planning import TrainingPlan, plan_run, tokens_to_reach_loss
from .recipes import PretrainRecipe, TABLE_III, recipe_for
from .report import build_report, write_report
from .reporting import format_bars, format_heatmap, format_series, format_table
from .study import ComparativeStudy, StudyConfig, StudyResults

__all__ = [
    "FIG4_GRID", "GridCell", "HeatmapResult", "flash_boost_table",
    "run_grid_search", "BRANCHES", "MAJOR_RELEASES", "ModelRelease",
    "dominant_branch", "releases_per_year", "ObservationCheck", "check_all",
    "observation_1", "observation_2", "observation_3", "observation_4",
    "observation_5", "PretrainRecipe", "TABLE_III", "recipe_for",
    "format_bars", "format_heatmap", "format_series", "format_table",
    "ComparativeStudy", "StudyConfig", "StudyResults",
    "LayoutRecommendation", "best_layout", "recommend_layouts",
    "EXPERIMENTS", "Claim", "ExperimentContext", "ExperimentResult",
    "ExperimentSpec", "list_experiments", "reproduce", "reproduce_all",
    "build_report", "write_report", "TrainingPlan", "plan_run",
    "tokens_to_reach_loss",
]
