#include "dtv/application_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oddci::dtv {

const char* to_string(XletState s) {
  switch (s) {
    case XletState::kLoaded:
      return "Loaded";
    case XletState::kPaused:
      return "Paused";
    case XletState::kStarted:
      return "Started";
    case XletState::kDestroyed:
      return "Destroyed";
  }
  return "?";
}

void XletRegistry::register_factory(const std::string& application_name,
                                    XletFactory factory) {
  if (!factory) {
    throw std::invalid_argument("XletRegistry: empty factory");
  }
  entries_.push_back({application_name, std::move(factory)});
}

std::uint32_t XletRegistry::find(const std::string& application_name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == application_name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  return kNotFound;
}

ApplicationManager::App* ApplicationManager::slot(
    std::uint32_t application_id) {
  for (App& app : apps_) {
    if (app.xlet && app.id == application_id) return &app;
  }
  return nullptr;
}

const ApplicationManager::App* ApplicationManager::slot(
    std::uint32_t application_id) const {
  return const_cast<ApplicationManager*>(this)->slot(application_id);
}

std::size_t ApplicationManager::active_count() const {
  return static_cast<std::size_t>(std::count_if(
      apps_.begin(), apps_.end(),
      [](const App& app) { return app.xlet != nullptr; }));
}

void ApplicationManager::process_ait(const broadcast::Ait& ait) {
  // Teardowns first so capacity frees before new launches.
  for (const auto& entry : ait.entries()) {
    if (entry.control_code == broadcast::AppControlCode::kDestroy ||
        entry.control_code == broadcast::AppControlCode::kKill) {
      destroy(entry.application_id, /*unconditional=*/true);
    }
  }
  for (const auto& entry : ait.entries()) {
    if (entry.control_code == broadcast::AppControlCode::kAutostart &&
        entry.base_file.empty() && !running(entry.application_id)) {
      launch(entry.application_id, entry.application_name);
    }
  }
}

bool ApplicationManager::launch(std::uint32_t application_id,
                                const std::string& name) {
  if (registry_ == nullptr || running(application_id)) return false;
  const std::uint32_t factory_index = registry_->find(name);
  if (factory_index == XletRegistry::kNotFound) return false;
  auto live = std::find_if(apps_.begin(), apps_.end(),
                           [](const App& app) { return !app.xlet; });
  if (live == apps_.end()) return false;
  live->xlet = registry_->factory(factory_index)(context_.receiver());
  if (!live->xlet) return false;
  live->id = application_id;
  live->state = XletState::kLoaded;
  // Loaded -> initXlet -> Paused -> startXlet -> Started, per Figure 4.
  live->xlet->init_xlet(context_);
  live->state = XletState::kPaused;
  live->xlet->start_xlet();
  live->state = XletState::kStarted;
  return true;
}

bool ApplicationManager::pause(std::uint32_t application_id) {
  App* app = slot(application_id);
  if (app == nullptr || app->state != XletState::kStarted) return false;
  app->xlet->pause_xlet();
  app->state = XletState::kPaused;
  return true;
}

bool ApplicationManager::resume(std::uint32_t application_id) {
  App* app = slot(application_id);
  if (app == nullptr || app->state != XletState::kPaused) return false;
  app->xlet->start_xlet();
  app->state = XletState::kStarted;
  return true;
}

bool ApplicationManager::destroy(std::uint32_t application_id,
                                 bool unconditional) {
  App* app = slot(application_id);
  if (app == nullptr) return false;
  // Every callback issued under the old generation becomes inert.
  context_.bump_generation();
  app->xlet->destroy_xlet(unconditional);
  // A destroyed Xlet instance can never be restarted; drop it entirely.
  app->xlet.reset();
  return true;
}

void ApplicationManager::destroy_all() {
  for (App& app : apps_) {
    if (app.xlet) destroy(app.id, /*unconditional=*/true);
  }
}

XletState ApplicationManager::state(std::uint32_t application_id) const {
  const App* app = slot(application_id);
  return app == nullptr ? XletState::kDestroyed : app->state;
}

bool ApplicationManager::running(std::uint32_t application_id) const {
  return slot(application_id) != nullptr;
}

Xlet* ApplicationManager::find(std::uint32_t application_id) {
  App* app = slot(application_id);
  return app == nullptr ? nullptr : app->xlet.get();
}

void ApplicationManager::notify_carousel(
    const broadcast::CarouselSnapshot& snapshot) {
  // Collect first: a callback may launch/destroy apps.
  std::array<Xlet*, kMaxApps> aware{};
  std::size_t n = 0;
  for (App& app : apps_) {
    if (app.xlet && app.state == XletState::kStarted) {
      aware[n++] = app.xlet.get();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (auto* c = dynamic_cast<CarouselAware*>(aware[i])) {
      c->on_carousel_update(snapshot);
    }
  }
}

std::uint8_t ApplicationManager::slot_of(const CarouselAware& reader) const {
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (dynamic_cast<const CarouselAware*>(apps_[i].xlet.get()) == &reader) {
      return static_cast<std::uint8_t>(i);
    }
  }
  throw std::logic_error("ApplicationManager: the reader is not hosted here");
}

void ApplicationManager::complete_read(std::uint8_t slot, std::uint16_t token,
                                       const broadcast::CarouselFile* file) {
  if (auto* reader = dynamic_cast<CarouselAware*>(apps_[slot].xlet.get())) {
    reader->on_carousel_read(token, file != nullptr,
                             file != nullptr ? *file : kNoCarouselFile);
  }
}

}  // namespace oddci::dtv
