"""prodenv: production-set identification and counterfactual bounds.

Library + CLI for heterogeneous price-taking firms: simulate economies,
recover discrete-type restricted profit functions from noisy values, recover
unobserved prices from proxies, build production-set envelopes by support
duality, bound counterfactuals sharply face by face (closed forms in d = 2,
small LPs otherwise), and check the Hausdorff/sup-norm estimation duality.
"""

__version__ = "0.1.0"

from .bounds import (BoundResult, ProfitData, brute_force_bounds,
                     profit_bounds, profit_bounds_fixed_quantity,
                     quantity_bounds, sharpness_check, wapm_feasible)
from .errors import (DeconvolutionFailure, IdentificationFailure,
                     InsufficientData, IntegrationError, NumericFailure,
                     ProdenvError, RankConditionError, UnboundedProblem,
                     ValidationError)
from .estimation import (DiewertFit, DualityReport, diewert_supply,
                         diewert_value, duality_check, fit_diewert,
                         infinite_hausdorff_demo, plugin_set)
from .geometry import (HalfspaceEnvelope, PriceRay, RestrictedPriceSet,
                       SupportResult, euler_residual, free_disposal_hull,
                       hausdorff_extended, hausdorff_oracle_2d, recession_ok,
                       support_value, support_values)
from .identify import (AtomSet, BucketingConfig, CellKey, IdentifyConfig,
                       NoiseCdf, ProfitTable, build_cells, deconvolve_atoms,
                       estimate_noise_cdf, find_separated_cell,
                       identify_profits, rank_and_assign)
from .proxies import (ProxyGoodModel, ProxyModel, RankDiagnostic,
                      euler_system_residual, integrate_g, quantile_anchors,
                      rank_matrix, recover_g_housing, recover_proxy_model,
                      solve_t)
from .simulate import (Dataset, DemandGood, DiewertTech, HicksNeutralTech,
                       KinkedTech, MarketConfig, PowerTech, ProxyGood,
                       TechnologySpec, gen_demand_proxy, generate_dataset,
                       invert_demand, nested_check, profit_oracle,
                       profit_oracle_batch)

__all__ = [name for name in dir() if not name.startswith("_")]
