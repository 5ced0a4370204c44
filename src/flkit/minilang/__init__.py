"""A small instrumented imperative language used as the fault-localization subject."""
