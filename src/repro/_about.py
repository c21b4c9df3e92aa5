"""Package metadata for :mod:`repro` (tegkit).

Kept in a dedicated module so that ``setup.py`` (which reads it as text)
and runtime code report one consistent version without importing heavy
submodules.
"""

__version__ = "1.0.0"

#: Human-readable title of the reproduced paper.
PAPER_TITLE = (
    "Prediction-Based Fast Thermoelectric Generator Reconfiguration "
    "for Energy Harvesting from Vehicle Radiators"
)

#: Venue of the reproduced paper.
PAPER_VENUE = "DATE 2018"

#: arXiv identifier of the reproduced paper.
PAPER_ARXIV = "1804.01574"
