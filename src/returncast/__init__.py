"""Monthly part-returns forecasting engine.

Predicts Equal-to-New part returns for a product generation from the
history of a genealogy-matched prior generation, ranks five supervised
models by test MAPE, emits best-fit/LCI/UCI forecasts, and validates each
planning cycle with a three-step early-warning post-processor.
"""

__version__ = "0.1.0"
