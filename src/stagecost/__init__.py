"""Staging-cost modelling and desk-scale data analysis toolkit.

The package answers one planning question - is it cheaper to analyse
simulation output on an SSD staging tier while it is produced, or to park
everything on the parallel file system and analyse it afterwards? - and
ships the small data tools used to study the question: a chunked CSV
datastore, a deterministic map-reduce engine, OLS regression with ANOVA,
and correlation-based schema advice.
"""
