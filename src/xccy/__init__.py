"""Multi-currency, multi-curve pricing and simulation engine.

Cross-currency trades funded through distinct unsecured, repo and collateral
accounts: correlated lognormal scenario generation under the domestic
martingale measure, wealth replay under the four collateral conventions,
Monte Carlo pricing with exogenous collateral in any currency, closed-form
prices for perfectly collateralized claims with cross-currency basis
discounting, and a regression solver for the endogenous-collateral valuation.
"""

from .bsde import BsdeConfig, BsdeResult, solve_endogenous
from .collateral import (
    CollateralPath,
    CollateralSpec,
    adjustment_stream,
    build_exogenous_path,
    collateral_from_mark,
    margin_interest,
)
from .contracts import Contract
from .curves import CurveSet, RateCurve, cash_account_value
from .diagnostics import martingale_test, reduction_suite, run_martingale_suite
from .errors import ConfigError, ModelValidationError, NumericalError, XccyError
from .model import (
    AssetSpec,
    CorrelationMatrix,
    Currency,
    FxSpec,
    MarketModel,
    ValidatedModel,
    cross_currency_basis,
    load_model,
    model_from_dict,
    validate_model,
)
from .pricing import PriceReport, price_exogenous, price_fully_collateralized
from .simulation import ScenarioSet, TimeGrid, qe_drift_of, simulate
from .wealth import Strategy, WealthPath, discounted_flows, replay_wealth

__all__ = [
    "AssetSpec",
    "BsdeConfig",
    "BsdeResult",
    "CollateralPath",
    "CollateralSpec",
    "ConfigError",
    "Contract",
    "CorrelationMatrix",
    "Currency",
    "CurveSet",
    "FxSpec",
    "MarketModel",
    "ModelValidationError",
    "NumericalError",
    "PriceReport",
    "RateCurve",
    "ScenarioSet",
    "Strategy",
    "TimeGrid",
    "ValidatedModel",
    "WealthPath",
    "XccyError",
    "adjustment_stream",
    "build_exogenous_path",
    "cash_account_value",
    "collateral_from_mark",
    "cross_currency_basis",
    "discounted_flows",
    "load_model",
    "margin_interest",
    "martingale_test",
    "model_from_dict",
    "price_exogenous",
    "price_fully_collateralized",
    "qe_drift_of",
    "reduction_suite",
    "replay_wealth",
    "run_martingale_suite",
    "simulate",
    "solve_endogenous",
    "validate_model",
    "__version__",
]

__version__ = "0.1.0"
