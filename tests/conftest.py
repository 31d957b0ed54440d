from hypothesis import settings

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")
