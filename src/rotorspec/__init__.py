"""rotorspec: hindered-rotor levels, tunneling spectra and qubit planning for
tetrahedral rotors in crystalline fields."""

__version__ = "0.1.0"
